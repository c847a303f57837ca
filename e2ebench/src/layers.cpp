#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "columns/column_file.h"
#include "core/imprint_scan.h"
#include "core/refinement.h"
#include "core/spatial_engine.h"
#include "gis/layer_io.h"
#include "gis/spatial_join.h"
#include "loader/binary_loader.h"
#include "server/protocol.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "sql/session.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace e2ebench {

using geocol::Status;

namespace {

/// What the composed layer calls produced for one selection, plus their
/// timings and work counts.
struct Composed {
  std::vector<uint64_t> rows;
  double filter_ms = 0.0;  ///< ImprintRangeSelect calls
  double and_ms = 0.0;     ///< BitVector::And intersections
  double refine_ms = 0.0;  ///< GridRefine
  uint64_t lines_candidate = 0, lines_total = 0;
  uint64_t values_checked = 0, boundary_rejects = 0;
  uint64_t candidates = 0, accepted = 0, exact_tests = 0;

  /// Adds `o`'s timings and counts (not its rows).
  void AddCosts(const Composed& o) {
    filter_ms += o.filter_ms;
    and_ms += o.and_ms;
    refine_ms += o.refine_ms;
    lines_candidate += o.lines_candidate;
    lines_total += o.lines_total;
    values_checked += o.values_checked;
    boundary_rejects += o.boundary_rejects;
    candidates += o.candidates;
    accepted += o.accepted;
    exact_tests += o.exact_tests;
  }
};

/// The selection of SpatialQueryEngine::Select, rebuilt from the layer
/// functions it calls: imprint range filters on x and y over the
/// (buffered) envelope, their intersection, one filter + intersection per
/// thematic range, then GridRefine unless the query is an unbuffered box.
Status Compose(geocol::SpatialQueryEngine* engine, geocol::ThreadPool* pool,
               const geocol::Geometry& geometry, double buffer,
               const std::vector<geocol::AttributeRange>& thematic,
               Composed* out) {
  const geocol::FlatTable& table = engine->table();
  GEOCOL_ASSIGN_OR_RETURN(geocol::ColumnPtr xcol, table.GetColumn("x"));
  GEOCOL_ASSIGN_OR_RETURN(geocol::ColumnPtr ycol, table.GetColumn("y"));
  geocol::Box env = geometry.Envelope();
  if (buffer > 0) env = env.Expanded(buffer);
  if (xcol->empty() || env.empty()) return Status::OK();

  auto filter = [&](const geocol::ColumnPtr& col, double lo, double hi,
                    geocol::BitVector* bits) -> Status {
    GEOCOL_ASSIGN_OR_RETURN(auto index,
                            engine->imprint_manager().GetOrBuild(col));
    geocol::ImprintScanStats st;
    geocol::Timer t;
    GEOCOL_RETURN_NOT_OK(
        geocol::ImprintRangeSelect(*col, *index, lo, hi, bits, &st, pool));
    out->filter_ms += t.ElapsedMillis();
    out->lines_candidate += st.lines_candidate;
    out->lines_total += st.lines_total;
    out->values_checked += st.values_checked;
    out->boundary_rejects +=
        st.values_checked - (st.rows_selected - st.rows_full);
    return Status::OK();
  };
  auto intersect = [&](geocol::BitVector* acc, const geocol::BitVector& b) {
    geocol::Timer t;
    acc->And(b);
    out->and_ms += t.ElapsedMillis();
  };

  geocol::BitVector rows, other;
  GEOCOL_RETURN_NOT_OK(filter(xcol, env.min_x, env.max_x, &rows));
  GEOCOL_RETURN_NOT_OK(filter(ycol, env.min_y, env.max_y, &other));
  intersect(&rows, other);
  for (const geocol::AttributeRange& a : thematic) {
    GEOCOL_ASSIGN_OR_RETURN(geocol::ColumnPtr col, table.GetColumn(a.column));
    geocol::BitVector sel;
    GEOCOL_RETURN_NOT_OK(filter(col, a.lo, a.hi, &sel));
    intersect(&rows, sel);
  }
  if (geometry.is_box() && buffer == 0.0) {
    const size_t before = out->rows.size();
    rows.CollectSetBits(&out->rows);
    out->candidates += out->rows.size() - before;
    out->accepted += out->rows.size() - before;
    return Status::OK();
  }
  geocol::RefinementStats rs;
  geocol::Timer t;
  GEOCOL_RETURN_NOT_OK(geocol::GridRefine(*xcol, *ycol, rows, geometry, buffer,
                                          engine->options().refine, &out->rows,
                                          &rs, pool));
  out->refine_ms += t.ElapsedMillis();
  out->candidates += rs.candidates;
  out->accepted += rs.accepted;
  out->exact_tests += rs.exact_tests;
  return Status::OK();
}

geocol::AggKind AggKindOf(geocol::sql::AggFunc f) {
  switch (f) {
    case geocol::sql::AggFunc::kSum: return geocol::AggKind::kSum;
    case geocol::sql::AggFunc::kAvg: return geocol::AggKind::kAvg;
    case geocol::sql::AggFunc::kMin: return geocol::AggKind::kMin;
    case geocol::sql::AggFunc::kMax: return geocol::AggKind::kMax;
    default: return geocol::AggKind::kCount;
  }
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

geocol::sql::SessionOptions OracleSessionOptions() {
  geocol::sql::SessionOptions o;
  o.record_trace = false;
  o.record_flight = false;
  o.slow_query_ms = -1.0;
  o.cache_budget_bytes = -1;
  return o;
}

/// Pool with the same number of threads as `engine` executes a query on,
/// so the timed layer calls run as parallel as they do inside the engine.
std::unique_ptr<geocol::ThreadPool> PoolLike(
    const geocol::SpatialQueryEngine& engine) {
  const uint32_t n = engine.num_effective_threads();
  if (n <= 1) return nullptr;
  return std::make_unique<geocol::ThreadPool>(n - 1);
}

}  // namespace

Status OpenCatalog(const std::string& table_dir, const std::string& layers_dir,
                   uint32_t num_threads, geocol::Catalog* catalog) {
  GEOCOL_ASSIGN_OR_RETURN(geocol::FlatTable table,
                          geocol::ReadTableDir(table_dir));
  const std::string name = table.name().empty() ? "ahn2" : table.name();
  geocol::EngineOptions options;
  options.num_threads = num_threads;
  GEOCOL_RETURN_NOT_OK(catalog->AddPointCloud(
      name, std::make_shared<geocol::FlatTable>(std::move(table)), options));
  std::vector<std::string> files;
  GEOCOL_RETURN_NOT_OK(geocol::ListFiles(layers_dir, ".layer", &files));
  for (const std::string& f : files) {
    GEOCOL_ASSIGN_OR_RETURN(auto layer, geocol::ReadLayerFile(f));
    GEOCOL_RETURN_NOT_OK(catalog->AddLayer(layer));
  }
  return Status::OK();
}

Status ComputeOracle(geocol::Catalog* catalog, int threads,
                     std::vector<Statement>* statements) {
  std::unordered_map<std::string, size_t> first;  // sql -> distinct index
  std::vector<const std::string*> distinct;
  std::vector<size_t> slot(statements->size());
  for (size_t i = 0; i < statements->size(); ++i) {
    auto [it, inserted] = first.emplace((*statements)[i].sql, distinct.size());
    if (inserted) distinct.push_back(&(*statements)[i].sql);
    slot[i] = it->second;
  }
  std::vector<uint32_t> digests(distinct.size());
  std::atomic<size_t> next{0};
  std::mutex mu;
  Status failure;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      geocol::sql::Session session(catalog, OracleSessionOptions());
      for (size_t i; (i = next.fetch_add(1)) < distinct.size();) {
        auto rs = session.Execute(*distinct[i]);
        if (!rs.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          failure = Status::Internal("oracle failed on '" + *distinct[i] +
                                     "': " + rs.status().ToString());
          next.store(distinct.size());
          return;
        }
        digests[i] = geocol::sql::ResultSetDigest(*rs);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  GEOCOL_RETURN_NOT_OK(failure);
  for (size_t i = 0; i < statements->size(); ++i) {
    (*statements)[i].expected = digests[slot[i]];
  }
  return Status::OK();
}

Status TraceLayers(geocol::Catalog* catalog,
                   const std::vector<Statement>& sample,
                   const std::vector<double>& client_ms, LayerMetrics* out) {
  using geocol::Timer;
  double parse_us = 0, plan_us = 0, execute_ms = 0, encode_us = 0,
         decode_us = 0, reply_bytes = 0, select_ms = 0, near_ms = 0,
         aggregate_ms = 0, client_total = 0;
  std::vector<double> overhead_ms;  // per statement: client - ExecuteQuery
  Composed sum;
  std::unique_ptr<geocol::ThreadPool> pool;
  {
    geocol::sql::Session warm(catalog, OracleSessionOptions());
    for (const Statement& st : sample) {
      GEOCOL_RETURN_NOT_OK(warm.Execute(st.sql).status());
    }
  }
  for (size_t s = 0; s < sample.size(); ++s) {
    const Statement& st = sample[s];
    client_total += client_ms[s];
    Timer t_parse;
    GEOCOL_ASSIGN_OR_RETURN(geocol::sql::SelectStmt stmt,
                            geocol::sql::Parse(st.sql));
    parse_us += t_parse.ElapsedMicros();
    Timer t_plan;
    GEOCOL_ASSIGN_OR_RETURN(geocol::sql::PlannedQuery plan,
                            geocol::sql::PlanQuery(catalog, std::move(stmt)));
    plan_us += t_plan.ElapsedMicros();
    Timer t_exec;
    GEOCOL_ASSIGN_OR_RETURN(geocol::sql::ResultSet rs,
                            geocol::sql::ExecuteQuery(plan));
    const double exec_ms = t_exec.ElapsedMillis();
    execute_ms += exec_ms;
    overhead_ms.push_back(client_ms[s] - exec_ms);
    if (geocol::sql::ResultSetDigest(rs) != st.expected) {
      return Status::Internal("in-process result differs from the oracle: " +
                              st.sql);
    }
    Timer t_enc;
    std::vector<uint8_t> wire = geocol::server::EncodeResultSet(rs);
    encode_us += t_enc.ElapsedMicros();
    reply_bytes += static_cast<double>(wire.size());
    Timer t_dec;
    GEOCOL_ASSIGN_OR_RETURN(geocol::sql::ResultSet decoded,
                            geocol::server::DecodeResultSet(wire));
    decode_us += t_dec.ElapsedMicros();
    if (geocol::sql::ResultSetDigest(decoded) != st.expected) {
      return Status::Internal("protocol round trip changed the result: " +
                              st.sql);
    }

    if (plan.target != geocol::sql::PlannedQuery::Target::kPointCloud ||
        plan.engine == nullptr) {
      return Status::Unsupported("traced phase expects flat point-cloud "
                                 "statements: " + st.sql);
    }
    geocol::SpatialQueryEngine* engine = plan.engine;
    if (!pool) pool = PoolLike(*engine);
    std::vector<uint64_t> rows;
    if (plan.near) {
      Timer t_near;
      GEOCOL_ASSIGN_OR_RETURN(
          geocol::NearLayerResult near,
          geocol::PointsNearLayerClass(engine, plan.near_layer.get(),
                                       plan.near_class, plan.near_distance));
      near_ms += t_near.ElapsedMillis();
      Composed c;
      for (uint64_t fi : plan.near_layer->SelectByClass(plan.near_class)) {
        GEOCOL_RETURN_NOT_OK(Compose(engine, pool.get(),
                                     plan.near_layer->feature(fi).geometry,
                                     plan.near_distance, {}, &c));
      }
      std::sort(c.rows.begin(), c.rows.end());
      c.rows.erase(std::unique(c.rows.begin(), c.rows.end()), c.rows.end());
      if (c.rows != near.row_ids) {
        return Status::Internal("composed NEAR rows differ from "
                                "PointsNearLayerClass: " + st.sql);
      }
      sum.AddCosts(c);
      if (!plan.thematic.empty()) continue;  // post-filtered; no agg check
      rows = std::move(near.row_ids);
    } else {
      geocol::Geometry geometry = plan.geometry;
      if (!plan.has_geometry) {
        // As the executor does: no spatial predicate = the table extent.
        GEOCOL_ASSIGN_OR_RETURN(auto xc, engine->table().GetColumn("x"));
        GEOCOL_ASSIGN_OR_RETURN(auto yc, engine->table().GetColumn("y"));
        geometry = geocol::Geometry(geocol::Box(
            xc->Stats().min, yc->Stats().min, xc->Stats().max, yc->Stats().max));
      }
      Timer t_sel;
      GEOCOL_ASSIGN_OR_RETURN(
          geocol::SelectionResult sel,
          engine->Select(geometry, plan.buffer, plan.thematic));
      select_ms += t_sel.ElapsedMillis();
      Composed c;
      GEOCOL_RETURN_NOT_OK(Compose(engine, pool.get(), geometry, plan.buffer,
                                   plan.thematic, &c));
      if (c.rows != sel.row_ids) {
        return Status::Internal("composed rows differ from "
                                "SpatialQueryEngine::Select: " + st.sql);
      }
      sum.AddCosts(c);
      rows = std::move(c.rows);
    }

    // Aggregates, exactly as the executor renders them (serial
    // AggregateRows over the selection), checked bit for bit.
    if (plan.stmt.IsAggregate()) {
      for (size_t k = 0; k < plan.stmt.items.size(); ++k) {
        const geocol::sql::SelectItem& it = plan.stmt.items[k];
        if (it.agg == geocol::sql::AggFunc::kCount) {
          if (rs.rows[0][k].number != static_cast<double>(rows.size())) {
            return Status::Internal("composed COUNT differs: " + st.sql);
          }
          continue;
        }
        GEOCOL_ASSIGN_OR_RETURN(auto col, engine->table().GetColumn(it.column));
        Timer t_agg;
        GEOCOL_ASSIGN_OR_RETURN(
            double v, geocol::AggregateRows(*col, rows, AggKindOf(it.agg)));
        aggregate_ms += t_agg.ElapsedMillis();
        if (!rows.empty() && !SameBits(v, rs.rows[0][k].number)) {
          return Status::Internal("composed aggregate differs from "
                                  "ExecuteQuery: " + st.sql);
        }
      }
    }
  }

  const double n = static_cast<double>(sample.size());
  const double client = client_total / n;
  (*out)["sql.parse_us"] = parse_us / n;
  (*out)["sql.plan_us"] = plan_us / n;
  (*out)["sql.execute_ms"] = execute_ms / n;
  (*out)["server.protocol.encode_us"] = encode_us / n;
  (*out)["server.protocol.decode_us"] = decode_us / n;
  (*out)["server.reply_bytes"] = reply_bytes / n;
  // A median over statements: the fixed cost per query, which the few
  // long NEAR joins of a sample would otherwise drown in their noise.
  std::sort(overhead_ms.begin(), overhead_ms.end());
  (*out)["server.overhead_ms"] = overhead_ms[overhead_ms.size() / 2];
  (*out)["core.select_ms"] = select_ms / n;
  (*out)["core.imprints.filter_ms"] = sum.filter_ms / n;
  (*out)["core.imprints.and_ms"] = sum.and_ms / n;
  (*out)["core.imprints.lines_touched"] =
      sum.lines_total > 0 ? static_cast<double>(sum.lines_candidate) /
                                static_cast<double>(sum.lines_total)
                          : 0.0;
  (*out)["core.imprints.false_positive"] =
      sum.values_checked > 0 ? static_cast<double>(sum.boundary_rejects) /
                                   static_cast<double>(sum.values_checked)
                             : 0.0;
  (*out)["core.refine.grid_ms"] = sum.refine_ms / n;
  (*out)["core.refine.accept_ratio"] =
      sum.candidates > 0 ? static_cast<double>(sum.accepted) /
                               static_cast<double>(sum.candidates)
                         : 1.0;
  (*out)["core.refine.exact_tests"] = static_cast<double>(sum.exact_tests) / n;
  (*out)["core.aggregate_ms"] = aggregate_ms / n;
  (*out)["gis.near_ms"] = near_ms / n;
  const double covered =
      (parse_us + plan_us + encode_us + decode_us) / 1000.0 / n + execute_ms / n;
  (*out)["trace.unattributed_share"] = client > 0 ? 1.0 - covered / client : 0.0;
  return Status::OK();
}

Status TraceImprintBuild(geocol::Catalog* catalog, LayerMetrics* out) {
  GEOCOL_ASSIGN_OR_RETURN(geocol::SpatialQueryEngine* engine,
                          catalog->GetEngine("ahn2"));
  GEOCOL_ASSIGN_OR_RETURN(auto xcol, engine->table().GetColumn("x"));
  GEOCOL_ASSIGN_OR_RETURN(auto ycol, engine->table().GetColumn("y"));
  std::unique_ptr<geocol::ThreadPool> pool = PoolLike(*engine);
  std::vector<double> build_ms;
  double index_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    geocol::ImprintManager cold(engine->options().imprints);
    cold.set_thread_pool(pool.get());
    geocol::Timer t;
    GEOCOL_ASSIGN_OR_RETURN(auto ix, cold.GetOrBuild(xcol));
    GEOCOL_ASSIGN_OR_RETURN(auto iy, cold.GetOrBuild(ycol));
    build_ms.push_back(t.ElapsedMillis());
    index_bytes = static_cast<double>(
        ix->Storage(xcol->size() * xcol->width()).total_bytes +
        iy->Storage(ycol->size() * ycol->width()).total_bytes);
  }
  std::sort(build_ms.begin(), build_ms.end());
  (*out)["core.imprints.build_ms"] = build_ms[1];
  (*out)["core.imprints.storage_ratio"] =
      index_bytes / static_cast<double>(xcol->size() * xcol->width() +
                                        ycol->size() * ycol->width());
  return Status::OK();
}

Status TraceLoadAndWrite(const std::string& tiles_dir,
                         const std::string& scratch_dir, LayerMetrics* out) {
  const std::string dumps = scratch_dir + "/dumps";
  const std::string table_dir = scratch_dir + "/table";
  GEOCOL_RETURN_NOT_OK(geocol::MakeDir(scratch_dir));
  GEOCOL_RETURN_NOT_OK(geocol::MakeDir(dumps));
  geocol::BinaryLoader loader(dumps);
  geocol::Timer t_load;
  GEOCOL_ASSIGN_OR_RETURN(auto table, loader.LoadDirectory(tiles_dir));
  (*out)["loader.load_s"] = t_load.ElapsedSeconds();
  geocol::Timer t_write;
  GEOCOL_RETURN_NOT_OK(geocol::WriteTableDir(*table, table_dir));
  (*out)["columns.write_s"] = t_write.ElapsedSeconds();
  return geocol::RemoveDirRecursive(scratch_dir);
}

}  // namespace e2ebench
