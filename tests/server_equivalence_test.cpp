// Differential proof that the multi-tenant server is an oracle-faithful
// front end over sql::Session (DESIGN.md §16): N concurrent clients
// replay a seeded workload and every result digest / error status is
// diffed bitwise against a single-threaded local session over the same
// catalog — including the shared-scan batched path (forced by holding
// the lone worker while overlapping viewport queries pile up) and live
// appends racing readers (per-statement epoch pinning).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "columns/sharded_table.h"
#include "core/live_table.h"
#include "core/table_appender.h"
#include "gis/catalog.h"
#include "pointcloud/generator.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/executor.h"
#include "sql/session.h"
#include "util/rng.h"
#include "xy_oracle.h"

namespace geocol {
namespace {

constexpr double kMinX = 85000, kMinY = 444000, kMaxX = 85060,
                 kMaxY = 444060;

/// Seeded statement mix: viewport aggregates, projections with ORDER BY /
/// LIMIT, thematic filters, and a periodic planner error (the server must
/// refuse it with the oracle's exact Status).
std::vector<std::string> WorkloadStatements(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> fx(kMinX, kMaxX);
  std::uniform_real_distribution<double> fy(kMinY, kMaxY);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x0 = fx(rng), x1 = fx(rng), y0 = fy(rng), y1 = fy(rng);
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    char where[256];
    std::snprintf(where, sizeof(where),
                  "x BETWEEN %.17g AND %.17g AND y BETWEEN %.17g AND %.17g",
                  x0, x1, y0, y1);
    switch (i % 6) {
      case 0:
        out.push_back(std::string("SELECT COUNT(*) FROM ahn2 WHERE ") +
                      where);
        break;
      case 1:
        out.push_back(std::string("SELECT AVG(z), MIN(z), MAX(z) FROM ahn2"
                                  " WHERE ") +
                      where);
        break;
      case 2:
        out.push_back(std::string("SELECT x, y, z FROM ahn2 WHERE ") +
                      where + " ORDER BY z DESC LIMIT 16");
        break;
      case 3:
        out.push_back(std::string("SELECT COUNT(*) FROM ahn2 WHERE ") +
                      where + " AND z >= 5");
        break;
      case 4:
        out.push_back(std::string("SELECT SUM(intensity) FROM ahn2 WHERE ") +
                      where);
        break;
      default:
        out.push_back(std::string("SELECT no_such_col FROM ahn2 WHERE ") +
                      where);
        break;
    }
  }
  return out;
}

/// One client-side observation, comparable against the oracle.
struct Observed {
  std::string sql;
  bool ok = false;
  uint32_t digest = 0;    ///< when ok
  std::string error;      ///< Status::ToString() when !ok
};

void DiffAgainstOracle(const std::vector<Observed>& observed,
                       Catalog* catalog) {
  sql::Session oracle(catalog);
  for (const auto& o : observed) {
    auto local = oracle.Execute(o.sql);
    ASSERT_EQ(o.ok, local.ok()) << o.sql << " server/oracle ok mismatch";
    if (o.ok) {
      EXPECT_EQ(o.digest, sql::ResultSetDigest(*local)) << o.sql;
    } else {
      EXPECT_EQ(o.error, local.status().ToString()) << o.sql;
    }
  }
}

TEST(ServerEquivalenceTest, ConcurrentClientsMatchOracle) {
  AhnGeneratorOptions gopts;
  gopts.extent = Box(kMinX, kMinY, kMaxX, kMaxY);
  AhnGenerator gen(gopts);
  auto table = gen.GenerateTable(8000);
  ASSERT_TRUE(table.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddPointCloud("ahn2", *table).ok());

  server::ServerOptions sopts;
  sopts.workers = 3;
  server::Server srv(&catalog, sopts);
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  constexpr int kClients = 6, kQueriesPerClient = 30;
  std::vector<std::vector<Observed>> per_client(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto statements = WorkloadStatements(kQueriesPerClient, 9100 + c);
      server::Client::Options copts;
      copts.port = port;
      copts.client_id = "client-" + std::to_string(c);
      auto client = server::Client::Connect(copts);
      ASSERT_TRUE(client.ok());
      for (const auto& sql : statements) {
        auto outcome = client->Query(sql);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        Observed o;
        o.sql = sql;
        o.ok = outcome->ok;
        if (outcome->ok) {
          o.digest = sql::ResultSetDigest(outcome->result);
        } else {
          o.error = outcome->error.ToStatus().ToString();
        }
        per_client[c].push_back(std::move(o));
      }
    });
  }
  for (auto& t : threads) t.join();
  srv.Stop();

  for (const auto& observed : per_client) {
    ASSERT_EQ(observed.size(), static_cast<size_t>(kQueriesPerClient));
    DiffAgainstOracle(observed, &catalog);
  }
  server::ServerStats s = srv.stats();
  EXPECT_EQ(s.queries_ok + s.queries_error,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
}

TEST(ServerEquivalenceTest, SharedScanBatchedPathBitIdentical) {
  AhnGeneratorOptions gopts;
  gopts.extent = Box(kMinX, kMinY, kMaxX, kMaxY);
  AhnGenerator gen(gopts);
  auto table = gen.GenerateTable(8000);
  ASSERT_TRUE(table.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddPointCloud("ahn2", *table).ok());

  // One worker, briefly plugged: while it holds the plug query in the
  // test hook, the viewport queries below pile up in the queue, so its
  // next pop extracts them all as one shared-scan batch group.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> held{0};
  server::ServerOptions sopts;
  sopts.workers = 1;
  sopts.before_execute_hook = [&](const server::QueryTask&) {
    if (held.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  server::Server srv(&catalog, sopts);
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  std::thread plug([&] {
    server::Client::Options copts;
    copts.port = port;
    auto client = server::Client::Connect(copts);
    ASSERT_TRUE(client.ok());
    auto rs = client->Query("SELECT COUNT(*) FROM ahn2");
    ASSERT_TRUE(rs.ok());
    EXPECT_TRUE(rs->ok);
  });
  while (held.load() == 0) std::this_thread::yield();

  // Overlapping viewports around the extent centre, varied shapes so the
  // fan-out covers aggregates, thematic filters, ORDER BY rendering and
  // a predicate-free member. All must plan cleanly — refused statements
  // are never admitted, so they cannot join the queue this test fills.
  std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85010 AND 85050"
      " AND y BETWEEN 444010 AND 444050",
      "SELECT AVG(z), MIN(z), MAX(z) FROM ahn2 WHERE x BETWEEN 85005 AND"
      " 85045 AND y BETWEEN 444005 AND 444045",
      "SELECT x, y, z FROM ahn2 WHERE x BETWEEN 85020 AND 85055"
      " AND y BETWEEN 444020 AND 444055 ORDER BY z DESC LIMIT 16",
      "SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85000 AND 85030"
      " AND y BETWEEN 444000 AND 444030 AND z >= 5",
      "SELECT SUM(intensity) FROM ahn2 WHERE x BETWEEN 85015 AND 85035"
      " AND y BETWEEN 444015 AND 444060",
      "SELECT COUNT(*), AVG(z) FROM ahn2 WHERE x BETWEEN 85001 AND 85059"
      " AND y BETWEEN 444001 AND 444059",
      "SELECT classification, z FROM ahn2 WHERE x BETWEEN 85025 AND 85045"
      " AND y BETWEEN 444025 AND 444045 LIMIT 32",
      "SELECT COUNT(*) FROM ahn2",
  };
  std::vector<Observed> observed(statements.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < statements.size(); ++i) {
    clients.emplace_back([&, i] {
      server::Client::Options copts;
      copts.port = port;
      auto client = server::Client::Connect(copts);
      ASSERT_TRUE(client.ok());
      auto outcome = client->Query(statements[i]);
      ASSERT_TRUE(outcome.ok());
      observed[i].sql = statements[i];
      observed[i].ok = outcome->ok;
      if (outcome->ok) {
        observed[i].digest = sql::ResultSetDigest(outcome->result);
      } else {
        observed[i].error = outcome->error.ToStatus().ToString();
      }
    });
  }
  // Every viewport query must be admitted before the worker wakes.
  while (srv.stats().queue_depth < statements.size()) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  plug.join();
  for (auto& t : clients) t.join();
  srv.Stop();

  server::ServerStats s = srv.stats();
  EXPECT_GE(s.batches, 1u);
  EXPECT_GE(s.batch_members, 2u);
  EXPECT_EQ(s.batch_fallbacks, 0u);
  DiffAgainstOracle(observed, &catalog);
}

/// A one-worker server whose worker is plugged: the first task it pops
/// (`plug_sql`, sent by Start) waits in the execute hook until Release, so
/// statements sent meanwhile pile up in the admission queue.
class PluggedServer {
 public:
  PluggedServer(Catalog* catalog, bool batching) {
    server::ServerOptions sopts;
    sopts.workers = 1;
    sopts.shared_scan_batching = batching;
    sopts.before_execute_hook = [this](const server::QueryTask&) {
      if (held_.fetch_add(1) == 0) {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return release_; });
      }
    };
    srv_ = std::make_unique<server::Server>(catalog, sopts);
  }
  ~PluggedServer() {
    Release();
    if (plug_.joinable()) plug_.join();
    srv_->Stop();
  }

  void Start(const std::string& plug_sql) {
    ASSERT_TRUE(srv_->Start().ok());
    plug_ = std::thread([this, plug_sql] {
      auto client = Connect();
      ASSERT_TRUE(client.ok());
      auto rs = client->Query(plug_sql);
      ASSERT_TRUE(rs.ok());
      EXPECT_TRUE(rs->ok);
    });
    while (held_.load() == 0) std::this_thread::yield();
  }
  Result<server::Client> Connect() const {
    server::Client::Options copts;
    copts.port = srv_->port();
    return server::Client::Connect(copts);
  }
  void WaitQueued(size_t n) const {
    while (srv_->stats().queue_depth < n) std::this_thread::yield();
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      release_ = true;
    }
    cv_.notify_all();
  }
  /// Drains the server and returns its final counters.
  server::ServerStats Stop() {
    Release();
    if (plug_.joinable()) plug_.join();
    srv_->Stop();
    return srv_->stats();
  }

 private:
  std::unique_ptr<server::Server> srv_;
  std::thread plug_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool release_ = false;
  std::atomic<int> held_{0};
};

// x/y range statements through the server, with shared-scan batching
// forced (the lone worker is plugged while each client's first statement
// queues) and with batching off: flat, live and sharded K = 1 / K = 4
// tables all answer bit-identically to a full scan, and with batching on
// every layout — sharded included — answers through shared scans.
TEST(ServerEquivalenceTest, XyRangeStatementsMatchFullScanBatchedAndSolo) {
  auto source = xytest::MakeXyTable(8000, 31);
  const auto queries = xytest::MakeXyQueries(907, 24, xytest::XyExtent());
  ShardingOptions one;
  one.num_shards = 1;
  auto sorted = ShardedTable::Create(*source, one);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  const std::shared_ptr<FlatTable> table = (*sorted)->shard(0).table;
  const auto expected = xytest::ExpectAll(*table, queries);

  Catalog catalog;
  ASSERT_TRUE(catalog.AddPointCloud("flat", table).ok());
  auto live = LiveTable::Create(table);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(catalog.AddLivePointCloud("live", *live).ok());
  for (uint32_t k : {1u, 4u}) {
    ShardingOptions so;
    so.num_shards = k;
    auto sharded = ShardedTable::Create(*source, so);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE(catalog
                    .AddShardedPointCloud("shard" + std::to_string(k),
                                          *sharded)
                    .ok());
  }

  struct Case {
    std::string sql;
    const std::vector<std::vector<sql::Value>>* want;
  };
  for (bool batching : {true, false}) {
    for (const std::string name : {"flat", "live", "shard1", "shard4"}) {
      SCOPED_TRACE(testing::Message()
                   << "batching=" << batching << " table=" << name);
      std::vector<Case> cases;
      for (size_t i = 0; i < queries.size(); ++i) {
        cases.push_back({xytest::AggregateSql(name, queries[i]),
                         &expected[i].aggregate});
        cases.push_back({xytest::ProjectSql(name, queries[i]),
                         &expected[i].projection});
      }
      PluggedServer srv(&catalog, batching);
      srv.Start("SELECT COUNT(*) FROM " + name);
      constexpr size_t kClients = 8;
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          auto client = srv.Connect();
          ASSERT_TRUE(client.ok());
          for (size_t i = c; i < cases.size(); i += kClients) {
            SCOPED_TRACE(cases[i].sql);
            auto outcome = client->Query(cases[i].sql);
            ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
            ASSERT_TRUE(outcome->ok) << outcome->error.ToStatus().ToString();
            EXPECT_TRUE(
                xytest::SameRows(outcome->result.rows, *cases[i].want));
          }
        });
      }
      srv.WaitQueued(kClients);
      srv.Release();
      for (auto& t : clients) t.join();
      server::ServerStats s = srv.Stop();
      EXPECT_EQ(s.batch_fallbacks, 0u);
      if (batching) {
        EXPECT_GE(s.batches, 1u);
        EXPECT_GT(s.batch_members, 0u);
      } else {
        EXPECT_EQ(s.batches, 0u);
      }
    }
  }
}

// The batch key is the pinned view: two identical queued statements on
// one view share a shared scan, but an append publishing between them
// gives the second a new view, so the two never share a batch and each
// answers as it would alone at its own view.
TEST(ServerEquivalenceTest, AppendBetweenQueuedPlansSplitsTheBatch) {
  auto initial = xytest::MakeXyTable(4000, 41);
  auto batch = xytest::MakeXyTable(500, 42);
  const std::string sql =
      "SELECT COUNT(*), SUM(z) FROM live WHERE x BETWEEN 5100 AND 5900 AND "
      "y BETWEEN 5100 AND 5900";
  for (bool append_between : {false, true}) {
    SCOPED_TRACE(testing::Message() << "append_between=" << append_between);
    auto live = LiveTable::Create(initial);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    Catalog catalog;
    ASSERT_TRUE(catalog.AddLivePointCloud("live", *live).ok());
    sql::SessionOptions solo_opts;
    solo_opts.record_trace = false;
    solo_opts.record_flight = false;
    sql::Session solo(&catalog, solo_opts);
    auto before = solo.Execute(sql);
    ASSERT_TRUE(before.ok()) << before.status().ToString();

    PluggedServer srv(&catalog, /*batching=*/true);
    srv.Start("SELECT COUNT(*) FROM live");
    std::vector<sql::ResultSet> got(2);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 2; ++c) {
      if (c == 1 && append_between) {
        TableAppender app(*live);
        ASSERT_TRUE(app.StageBatch(*batch).ok());
        ASSERT_TRUE(app.Commit().ok());
      }
      clients.emplace_back([&, c] {
        auto client = srv.Connect();
        ASSERT_TRUE(client.ok());
        auto outcome = client->Query(sql);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        ASSERT_TRUE(outcome->ok) << outcome->error.ToStatus().ToString();
        got[c] = std::move(outcome->result);
      });
      srv.WaitQueued(c + 1);
    }
    srv.Release();
    for (auto& t : clients) t.join();
    server::ServerStats s = srv.Stop();

    auto after = solo.Execute(sql);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_TRUE(xytest::SameRows(got[0].rows, before->rows));
    EXPECT_TRUE(xytest::SameRows(got[1].rows, after->rows));
    if (append_between) {
      EXPECT_EQ(s.batches, 0u);
      EXPECT_NE(before->rows[0][0].number, after->rows[0][0].number);
    } else {
      EXPECT_EQ(s.batches, 1u);
      EXPECT_EQ(s.batch_members, 2u);
    }
  }
}

TEST(ServerEquivalenceTest, LiveAppendsRaceReadersWithEpochPinning) {
  // Readers hammer COUNT(*) while an appender commits epochs; because
  // statements pin their epoch at admission, every observed count must be
  // an exact epoch size (initial + k * batch), never a torn value, and
  // counts are non-decreasing per client (one statement in flight at a
  // time per connection).
  const Box extent(0, 0, 100, 100);
  constexpr size_t kInitial = 1000, kBatch = 500;
  constexpr int kCommits = 10;
  Rng rng(77);
  auto make_points = [&](size_t n) {
    std::vector<double> xs(n), ys(n), zs(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = rng.UniformDouble(extent.min_x, extent.max_x);
      ys[i] = rng.UniformDouble(extent.min_y, extent.max_y);
      zs[i] = rng.UniformDouble(-5, 40);
    }
    auto t = std::make_shared<FlatTable>("live");
    EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
    EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
    EXPECT_TRUE(t->AddColumn(Column::FromVector("z", zs)).ok());
    return t;
  };
  auto live = LiveTable::Create(make_points(kInitial));
  ASSERT_TRUE(live.ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddLivePointCloud("live", *live).ok());

  server::ServerOptions sopts;
  sopts.workers = 2;
  server::Server srv(&catalog, sopts);
  ASSERT_TRUE(srv.Start().ok());
  const int port = srv.port();

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    TableAppender app(*live);
    for (int c = 0; c < kCommits; ++c) {
      ASSERT_TRUE(app.StageBatch(*make_points(kBatch)).ok());
      ASSERT_TRUE(app.Commit().ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      server::Client::Options copts;
      copts.port = port;
      auto client = server::Client::Connect(copts);
      ASSERT_TRUE(client.ok());
      double last = 0;
      while (!writer_done.load()) {
        auto rs = client->Query("SELECT COUNT(*) FROM live");
        ASSERT_TRUE(rs.ok());
        ASSERT_TRUE(rs->ok) << rs->error.message;
        double count = rs->result.rows[0][0].number;
        // Exactly an epoch size, never torn.
        double over = count - static_cast<double>(kInitial);
        EXPECT_GE(over, 0);
        EXPECT_EQ(std::fmod(over, static_cast<double>(kBatch)), 0.0)
            << count;
        EXPECT_GE(count, last);
        last = count;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  // After the last commit every new statement sees the final epoch.
  {
    server::Client::Options copts;
    copts.port = port;
    auto client = server::Client::Connect(copts);
    ASSERT_TRUE(client.ok());
    auto rs = client->Query("SELECT COUNT(*) FROM live");
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rs->ok);
    EXPECT_EQ(rs->result.rows[0][0].number,
              static_cast<double>(kInitial + kCommits * kBatch));
  }
  srv.Stop();
}

}  // namespace
}  // namespace geocol
