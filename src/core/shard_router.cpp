#include "core/shard_router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "columns/column_file.h"
#include "columns/types.h"
#include "sfc/hilbert.h"
#include "telemetry/heat.h"
#include "telemetry/metrics.h"

namespace geocol {

namespace {

/// Index of the shard containing `row` given the base offsets.
size_t ShardIndexFor(const std::vector<uint64_t>& bases, uint64_t row) {
  size_t lo = 0, hi = bases.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (bases[mid] <= row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void AccumulateFilterStats(const ImprintScanStats& in, ImprintScanStats* out) {
  out->lines_total += in.lines_total;
  out->lines_candidate += in.lines_candidate;
  out->lines_full += in.lines_full;
  out->values_checked += in.values_checked;
  out->rows_selected += in.rows_selected;
  out->rows_full += in.rows_full;
  out->workers = std::max(out->workers, in.workers);
}

void AccumulateRefineStats(const RefinementStats& in, RefinementStats* out) {
  out->candidates += in.candidates;
  out->accepted += in.accepted;
  out->cells_total += in.cells_total;
  out->cells_nonempty += in.cells_nonempty;
  out->cells_inside += in.cells_inside;
  out->cells_outside += in.cells_outside;
  out->cells_boundary += in.cells_boundary;
  out->exact_tests += in.exact_tests;
  // Per-shard refinement grids have their own frames; a merged grid shape
  // would be meaningless, so the dimensions stay 0 for K > 1 (the
  // single-scanned-shard path copies stats verbatim instead).
  out->workers = std::max(out->workers, in.workers);
}

/// One shard's outcome in a scatter.
template <typename R>
struct ShardBranch {
  R result;
  QueryProfile profile;
  Status status;
};

/// Runs `run` over the `scanned` shards of `view` — on the view's pool
/// when more than one — each inside its own shard.scan span, and returns
/// the branches in `scanned` order. All shard engines share the pool, so
/// morsels from different shards interleave freely.
template <typename R, typename Fn>
Result<std::vector<ShardBranch<R>>> Scatter(const ShardsView& view,
                                            const std::vector<size_t>& scanned,
                                            const Fn& run) {
  std::vector<ShardBranch<R>> branches(scanned.size());
  auto run_shard = [&](size_t j) {
    const size_t s = scanned[j];
    ShardBranch<R>& b = branches[j];
    int32_t span = b.profile.OpenSpan("shard.scan");
    b.profile.AddAttr(span, "shard", static_cast<uint64_t>(s));
    Result<R> r = run(*view.shards[s]);
    b.status = r.status();
    if (!r.ok()) {
      b.profile.CloseSpan(0, 0);
      return;
    }
    b.result = std::move(*r);
    b.profile.Append(b.result.profile);
    char detail[64];
    std::snprintf(detail, sizeof(detail), "shard %zu base=%llu", s,
                  static_cast<unsigned long long>(view.bases[s]));
    b.profile.CloseSpan(view.shards[s]->num_rows(), b.result.row_ids.size(),
                        detail);
  };
  if (view.pool != nullptr && branches.size() > 1) {
    view.pool->ParallelFor(branches.size(), run_shard);
  } else {
    for (size_t j = 0; j < branches.size(); ++j) run_shard(j);
  }
  for (const ShardBranch<R>& b : branches) {
    GEOCOL_RETURN_NOT_OK(b.status);
  }
  return branches;
}

/// Bumps the routing counters and closes the shard.route span opened at
/// `route_span` with the outcome as attributes.
void CloseRoute(const ShardsView& view, int32_t route_span, size_t answered,
                size_t covered, uint64_t rows_out, QueryProfile* profile) {
  GEOCOL_METRIC_COUNTER(c_pruned, "geocol_shards_pruned_total");
  GEOCOL_METRIC_COUNTER(c_scanned, "geocol_shards_scanned_total");
  GEOCOL_METRIC_COUNTER(c_covered, "geocol_shards_covered_total");
  // Covered shards count as scanned in the headline counters (they were
  // answered, not skipped), and separately in the covered counter.
  const size_t total = view.shards.size();
  c_scanned.Increment(answered);
  c_pruned.Increment(total - answered);
  c_covered.Increment(covered);
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "scanned %zu/%zu shards (%zu pruned, %zu covered)", answered,
                total, total - answered, covered);
  profile->CloseSpan(view.total_rows, rows_out, detail);
  profile->AddAttr(route_span, "shards_total", static_cast<uint64_t>(total));
  profile->AddAttr(route_span, "shards_scanned",
                   static_cast<uint64_t>(answered));
  profile->AddAttr(route_span, "shards_pruned",
                   static_cast<uint64_t>(total - answered));
  profile->AddAttr(route_span, "shards_covered",
                   static_cast<uint64_t>(covered));
}

}  // namespace

Result<Box> ShardsView::Extent() const {
  if (shards.size() == 1) {
    const FlatTable& table = *shards[0]->table();
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr xc, table.GetColumn("x"));
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr yc, table.GetColumn("y"));
    return Box(xc->Stats().min, yc->Stats().min, xc->Stats().max,
               yc->Stats().max);
  }
  Box out;
  for (const auto& shard : shards) out.Extend(shard->bbox());
  return out;
}

void ShardsView::set_cache_budget(uint64_t budget_bytes) const {
  for (const auto& shard : shards) {
    shard->engine().set_cache_budget(budget_bytes);
  }
}

Result<SelectionResult> ShardsView::Select(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic) const {
  if (shards.size() == 1) {
    return shards[0]->engine().Select(geometry, buffer, thematic);
  }
  SelectionResult result;
  if (total_rows == 0) return result;
  Box env = geometry.Envelope();
  if (buffer > 0) env = env.Expanded(buffer);
  if (env.empty()) return result;

  // ---- Prune: classify every shard against the query envelope before
  // any imprint is consulted or built. Three outcomes:
  //   pruned  — bbox misses the envelope; the shard contributes nothing.
  //   covered — a box query without thematic filters fully contains the
  //             shard's bbox, so every row qualifies (bbox-as-zonemap):
  //             its full id range goes straight into the merged result.
  //             A buffer only enlarges the qualifying region, so the raw
  //             box decides.
  //   scanned — everything else runs the shard engine's filter + refine.
  const bool coverable = thematic.empty() && geometry.is_box();
  struct ShardWork {
    size_t shard;
    int32_t branch;  ///< index into the scatter branches; -1 = covered
  };
  std::vector<ShardWork> work;
  std::vector<size_t> scanned;
  size_t num_covered = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    const Box& bbox = shards[i]->bbox();
    if (!bbox.Intersects(env)) continue;
    if (coverable && geometry.box().Contains(bbox)) {
      work.push_back({i, -1});
      ++num_covered;
    } else {
      work.push_back({i, static_cast<int32_t>(scanned.size())});
      scanned.push_back(i);
    }
  }

  int32_t route_span = result.profile.OpenSpan("shard.route");
  GEOCOL_ASSIGN_OR_RETURN(
      auto branches,
      Scatter<SelectionResult>(*this, scanned, [&](LocalShard& shard) {
        return shard.engine().Select(geometry, buffer, thematic);
      }));

  // ---- Gather: merge in shard order. Shards are contiguous runs of the
  // Hilbert-sorted row space, so base-offset local ids (or a covered
  // shard's whole id range) in shard order are the ascending global ids
  // the unsharded engine over the sorted table produces.
  uint64_t merged = 0;
  for (const ShardWork& w : work) {
    merged += w.branch < 0 ? shards[w.shard]->num_rows()
                           : branches[w.branch].result.row_ids.size();
  }
  result.row_ids.resize(merged);
  uint64_t* out = result.row_ids.data();
  for (const ShardWork& w : work) {
    const uint64_t base = bases[w.shard];
    if (w.branch < 0) {
      const uint64_t rows = shards[w.shard]->num_rows();
      for (uint64_t r = 0; r < rows; ++r) out[r] = base + r;
      out += rows;
      int32_t span = result.profile.Add("shard.covered", 0, rows, rows);
      result.profile.AddAttr(span, "shard", static_cast<uint64_t>(w.shard));
      telemetry::TouchShardHeat(name, static_cast<uint32_t>(w.shard),
                                /*covered=*/true, rows);
      continue;
    }
    const ShardBranch<SelectionResult>& b = branches[w.branch];
    const std::vector<uint64_t>& in = b.result.row_ids;
    for (size_t i = 0; i < in.size(); ++i) out[i] = base + in[i];
    out += in.size();
    telemetry::TouchShardHeat(name, static_cast<uint32_t>(w.shard),
                              /*covered=*/false, in.size());
    result.profile.Append(b.profile);
    if (branches.size() == 1 && num_covered == 0) {
      result.filter_x = b.result.filter_x;
      result.filter_y = b.result.filter_y;
      result.refine = b.result.refine;
    } else {
      AccumulateFilterStats(b.result.filter_x, &result.filter_x);
      AccumulateFilterStats(b.result.filter_y, &result.filter_y);
      AccumulateRefineStats(b.result.refine, &result.refine);
    }
  }
  CloseRoute(*this, route_span, work.size(), num_covered,
             result.row_ids.size(), &result.profile);
  return result;
}

Result<NearSelection> ShardsView::SelectNear(
    const std::vector<const Geometry*>& features, double distance,
    const std::vector<AttributeRange>& ranges) const {
  if (shards.size() == 1) {
    return shards[0]->engine().SelectNear(features, distance, ranges);
  }
  NearSelection result;
  if (total_rows == 0 || features.empty()) return result;
  // A shard joins when its bbox meets some feature's buffered envelope.
  std::vector<Box> envelopes;
  envelopes.reserve(features.size());
  for (const Geometry* g : features) {
    Box env = g->Envelope();
    envelopes.push_back(distance > 0 ? env.Expanded(distance) : env);
  }
  std::vector<size_t> scanned;
  for (size_t i = 0; i < shards.size(); ++i) {
    const Box& bbox = shards[i]->bbox();
    if (std::any_of(envelopes.begin(), envelopes.end(),
                    [&](const Box& env) { return bbox.Intersects(env); })) {
      scanned.push_back(i);
    }
  }

  int32_t route_span = result.profile.OpenSpan("shard.route");
  GEOCOL_ASSIGN_OR_RETURN(
      auto branches,
      Scatter<NearSelection>(*this, scanned, [&](LocalShard& shard) {
        return shard.engine().SelectNear(features, distance, ranges);
      }));
  // Gather in shard order; a feature that matched in several shards
  // counts once.
  std::vector<bool> matched(features.size(), false);
  for (size_t j = 0; j < scanned.size(); ++j) {
    const ShardBranch<NearSelection>& b = branches[j];
    const uint64_t base = bases[scanned[j]];
    for (uint64_t r : b.result.row_ids) result.row_ids.push_back(base + r);
    for (uint32_t f : b.result.matched_features) matched[f] = true;
    telemetry::TouchShardHeat(name, static_cast<uint32_t>(scanned[j]),
                              /*covered=*/false, b.result.row_ids.size());
    result.profile.Append(b.profile);
  }
  for (uint32_t f = 0; f < matched.size(); ++f) {
    if (matched[f]) result.matched_features.push_back(f);
  }
  CloseRoute(*this, route_span, scanned.size(), 0, result.row_ids.size(),
             &result.profile);
  return result;
}

Result<double> ShardsView::Aggregate(
    const Geometry& geometry, double buffer,
    const std::vector<AttributeRange>& thematic, const std::string& column,
    AggKind kind) const {
  if (shards.size() == 1) {
    return shards[0]->engine().Aggregate(geometry, buffer, thematic, column,
                                         kind);
  }
  GEOCOL_ASSIGN_OR_RETURN(SelectionResult sel,
                          Select(geometry, buffer, thematic));
  if (kind == AggKind::kCount) {
    return static_cast<double>(sel.row_ids.size());
  }
  GEOCOL_ASSIGN_OR_RETURN(ShardedColumnReader reader,
                          ShardedColumnReader::Make(*this, column));
  return reader.Aggregate(sel.row_ids, kind, pool.get());
}

ShardRouter::ShardRouter(std::shared_ptr<ShardedTable> table,
                         EngineOptions options)
    : table_(std::move(table)),
      // Shard engines borrow this pool; nested ParallelFor (scatter over
      // shards, morsels within a shard) is safe and keeps all workers
      // busy.
      pool_(MakeQueryPool(options.num_threads)) {
  auto view = std::make_shared<ShardsView>();
  view->total_rows = table_->num_rows();
  view->generation = table_->generation();
  view->name = table_->name();
  view->pool = pool_;
  start_keys_.reserve(table_->num_shards());
  // Routing keys for live appends: shard i owns Hilbert keys in
  // [start_keys_[i], start_keys_[i+1]). The first row of a shard is the
  // smallest key it holds (shards are contiguous runs of the sorted row
  // space), and appends never change a shard's first row, so these are
  // stable for the router's lifetime. A rowless shard inherits its
  // predecessor's key, which routes nothing away from non-empty shards.
  uint64_t prev_key = 0;
  for (size_t i = 0; i < table_->num_shards(); ++i) {
    const ShardSlice& slice = table_->shard(i);
    view->bases.push_back(slice.base);
    view->shards.push_back(std::make_shared<LocalShard>(
        slice, options, table_->x_column(), table_->y_column(),
        pool_.get()));
    uint64_t key = prev_key;
    if (i > 0 && slice.table->num_rows() > 0) {
      ColumnPtr x = slice.table->column(table_->x_column());
      ColumnPtr y = slice.table->column(table_->y_column());
      if (x != nullptr && y != nullptr) {
        key = HilbertEncodeScaled(x->GetDouble(0), y->GetDouble(0),
                                  table_->extent(),
                                  table_->options().hilbert_order);
      }
    }
    // Shard 0 owns everything below shard 1's first key, hence key 0.
    start_keys_.push_back(i == 0 ? 0 : key);
    prev_key = start_keys_.back();
  }
  view_ = std::move(view);
}

std::shared_ptr<const ShardsView> ShardRouter::View() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

Status ShardRouter::Append(const FlatTable& batch) {
  GEOCOL_RETURN_NOT_OK(batch.Validate());
  if (batch.num_rows() == 0) return Status::OK();
  GEOCOL_METRIC_COUNTER(c_commits, "geocol_shard_append_commits_total");
  GEOCOL_METRIC_COUNTER(c_rows, "geocol_shard_append_rows_total");
  GEOCOL_METRIC_COUNTER(c_shards, "geocol_shard_append_shards_total");

  // One appender at a time; routing and the COW column builds below run
  // outside view_mu_, so in-flight queries never wait on an append.
  // table_'s slices and view_ only change in this function, so reading
  // them here — holding append_mu_ — is stable.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  if (!(batch.schema() == view_->schema())) {
    return Status::InvalidArgument("batch schema differs from sharded table");
  }
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr bx, batch.GetColumn(table_->x_column()));
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr by, batch.GetColumn(table_->y_column()));

  // ---- Route: batch row -> owning shard by Hilbert start keys. The
  // extent and curve order are fixed at layout creation (out-of-extent
  // points clamp to the boundary cells), so routing is stable across the
  // table's whole append history.
  const uint64_t n = batch.num_rows();
  std::vector<std::vector<uint64_t>> rows_for(start_keys_.size());
  for (uint64_t r = 0; r < n; ++r) {
    const uint64_t key =
        HilbertEncodeScaled(bx->GetDouble(r), by->GetDouble(r),
                            table_->extent(),
                            table_->options().hilbert_order);
    const size_t s = static_cast<size_t>(
        std::upper_bound(start_keys_.begin(), start_keys_.end(), key) -
        start_keys_.begin()) - 1;
    rows_for[s].push_back(r);
  }

  // ---- Build: extend every affected shard's columns copy-on-write.
  // Untouched shards are not looked at, let alone copied.
  struct Replacement {
    size_t shard = 0;
    std::shared_ptr<FlatTable> table;
    Box bbox;
    std::string dir;  ///< new shard directory; "" while memory-only
  };
  std::vector<Replacement> reps;
  std::vector<uint8_t> gather;
  for (size_t s = 0; s < rows_for.size(); ++s) {
    const std::vector<uint64_t>& rows = rows_for[s];
    if (rows.empty()) continue;
    const ShardSlice& slice = table_->shard(s);
    Replacement rep;
    rep.shard = s;
    rep.bbox = slice.bbox;
    for (uint64_t r : rows) {
      rep.bbox.Extend(bx->GetDouble(r), by->GetDouble(r));
    }
    auto next = std::make_shared<FlatTable>(slice.table->name());
    for (const ColumnPtr& base : slice.table->columns()) {
      GEOCOL_ASSIGN_OR_RETURN(ColumnPtr add, batch.GetColumn(base->name()));
      const size_t w = base->width();
      gather.resize(rows.size() * w);
      double add_min = std::numeric_limits<double>::infinity();
      double add_max = -std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < rows.size(); ++i) {
        std::memcpy(gather.data() + i * w, add->raw_data() + rows[i] * w, w);
        const double v = add->GetDouble(rows[i]);
        add_min = std::min(add_min, v);
        add_max = std::max(add_max, v);
      }
      GEOCOL_ASSIGN_OR_RETURN(
          ColumnPtr appended,
          Column::CloneAppend(base, gather.data(), rows.size()));
      // Seed the stats cache (base stats ∪ batch extremes) so neither the
      // bbox maintenance here nor a first query rescans the whole shard.
      if (base->empty()) {
        appended->SetCachedStats(add_min, add_max);
      } else {
        const ColumnStats& bs = base->Stats();
        appended->SetCachedStats(std::min(bs.min, add_min),
                                 std::max(bs.max, add_max));
      }
      GEOCOL_RETURN_NOT_OK(next->AddColumn(std::move(appended)));
    }
    GEOCOL_RETURN_NOT_OK(next->Validate());
    rep.table = std::move(next);
    reps.push_back(std::move(rep));
  }

  // ---- Durability first (layouts loaded from / persisted to disk carry
  // per-slice dirs): replacement shard tables go into next-generation
  // directories — never touching the ones the live manifest references —
  // and the shards.gsm swap is the one crash-commit point for the whole
  // batch. Before it, reopen sees the old epoch; after it, the new one.
  const bool persisted = !table_->shard(0).dir.empty();
  uint64_t new_gen = 0;
  std::string root;
  if (persisted) {
    const std::string& dir0 = table_->shard(0).dir;
    const size_t slash = dir0.find_last_of('/');
    if (slash == std::string::npos) {
      return Status::Internal("unexpected shard dir layout: " + dir0);
    }
    root = dir0.substr(0, slash);
    GEOCOL_ASSIGN_OR_RETURN(ShardedTableManifest m,
                            ReadShardedTableManifest(root));
    if (m.shards.size() != table_->num_shards()) {
      return Status::Corruption("on-disk shard count drifted from layout: " +
                                root);
    }
    new_gen = m.generation + 1;
    m.generation = new_gen;
    for (Replacement& rep : reps) {
      ShardedTableManifest::ManifestShard& ms = m.shards[rep.shard];
      ms.dirname = ShardDirName(rep.shard, new_gen);
      ms.rows = rep.table->num_rows();
      ms.bbox = rep.bbox;
      rep.dir = root + "/" + ms.dirname;
      GEOCOL_RETURN_NOT_OK(WriteTableDir(*rep.table, rep.dir));
    }
    // The commit point.
    GEOCOL_RETURN_NOT_OK(WriteShardedTableManifest(root, m));
  }

  // ---- Publish: build the replacement shard handles (sharing each
  // retired shard's imprint manager, so appended columns extend their
  // lineage base's imprints incrementally, and its engine options, so the
  // cache binding carries over) into a NEW view. Readers pinned to older
  // views keep their shard set alive through the shared_ptrs; new views
  // see the whole batch.
  auto next = std::make_shared<ShardsView>(*view_);
  for (const Replacement& rep : reps) {
    ShardSlice& slice = table_->shards()[rep.shard];
    slice.table = rep.table;
    slice.bbox = rep.bbox;
    if (!rep.dir.empty()) slice.dir = rep.dir;
    SpatialQueryEngine& old = next->shards[rep.shard]->engine();
    next->shards[rep.shard] = std::make_shared<LocalShard>(
        slice, old.options(), table_->x_column(), table_->y_column(),
        pool_.get(), old.imprint_manager_ptr());
  }
  // Appending to shard i shifts the global base of every shard after it;
  // rebase the whole run. Pinned views keep their own bases.
  uint64_t base = 0;
  for (size_t s = 0; s < next->shards.size(); ++s) {
    table_->shards()[s].base = base;
    next->bases[s] = base;
    base += next->shards[s]->num_rows();
  }
  table_->set_num_rows(base);
  if (persisted) table_->set_generation(new_gen);
  next->total_rows = base;
  next->generation = table_->generation();
  ++next->version;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    view_ = std::move(next);
  }

  c_commits.Increment();
  c_rows.Increment(n);
  c_shards.Increment(reps.size());
  return Status::OK();
}

Result<ShardedColumnReader> ShardedColumnReader::Make(
    const ShardsView& view, const std::string& column) {
  ShardedColumnReader reader;
  reader.columns_.reserve(view.shards.size());
  for (const auto& shard : view.shards) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, shard->GetColumn(column));
    reader.columns_.push_back(std::move(col));
  }
  reader.bases_ = view.bases;
  return reader;
}

Status ShardedColumnReader::GetDoubleBatch(const uint64_t* rows, size_t n,
                                           double* out) const {
  if (columns_.size() == 1) return columns_[0]->GetDoubleBatch(rows, n, out);
  std::vector<uint64_t> local;
  size_t i = 0;
  while (i < n) {
    const size_t s = ShardIndexFor(bases_, rows[i]);
    const uint64_t base = bases_[s];
    const uint64_t end = s + 1 < bases_.size() ? bases_[s + 1] : UINT64_MAX;
    local.clear();
    size_t j = i;
    for (; j < n && rows[j] >= base && rows[j] < end; ++j) {
      local.push_back(rows[j] - base);
    }
    GEOCOL_RETURN_NOT_OK(
        columns_[s]->GetDoubleBatch(local.data(), local.size(), out + i));
    i = j;
  }
  return Status::OK();
}

Result<double> ShardedColumnReader::Aggregate(
    const std::vector<uint64_t>& rows, AggKind kind, ThreadPool* pool) const {
  if (columns_.size() == 1) {
    return AggregateRows(*columns_[0], rows, kind, pool);
  }
  if (kind == AggKind::kCount) return static_cast<double>(rows.size());
  double out = std::nan("");
  if (rows.empty()) return out;
  bool any_paged = false;
  for (const ColumnPtr& col : columns_) any_paged |= col->paged();
  Status gather_status;
  DispatchDataType(columns_[0]->type(), [&]<typename T>() {
    if (!any_paged) {
      std::vector<std::span<const T>> spans;
      spans.reserve(columns_.size());
      for (const ColumnPtr& col : columns_) spans.push_back(col->Values<T>());
      out = AggregateValues<T>(rows, kind, pool, [&](size_t i) {
        const uint64_t r = rows[i];
        size_t s = ShardIndexFor(bases_, r);
        return spans[s][r - bases_[s]];
      });
      return;
    }
    // Paged shards: gather the selected values once, re-pinning only when
    // the walk leaves the current chunk or shard. The accumulator then
    // runs over positions exactly as in the resident branch, so sharded
    // paged aggregates stay bit-identical to the resident ones.
    std::vector<T> gathered(rows.size());
    ColumnChunkPin pin;
    size_t pin_shard = SIZE_MAX;
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint64_t r = rows[i];
      const size_t s = ShardIndexFor(bases_, r);
      const uint64_t local = r - bases_[s];
      const Column& col = *columns_[s];
      if (!col.paged()) {
        gathered[i] = col.Values<T>()[local];
        continue;
      }
      if (s != pin_shard || pin.keepalive == nullptr ||
          local < pin.first_row || local >= pin.first_row + pin.row_count) {
        auto pinned = col.PinChunk(local / col.chunk_rows());
        if (!pinned.ok()) {
          gather_status = pinned.status();
          return;
        }
        pin = std::move(*pinned);
        pin_shard = s;
      }
      gathered[i] = pin.values<T>()[local - pin.first_row];
    }
    out = AggregateValues<T>(rows, kind, pool,
                             [&](size_t i) { return gathered[i]; });
  });
  GEOCOL_RETURN_NOT_OK(gather_status);
  return out;
}

}  // namespace geocol
