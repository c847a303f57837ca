// Point-cloud views and the scatter-gather executor over them (DESIGN.md
// §12). Every registered point cloud answers through one pinned
// ShardsView of K >= 1 shards: a Hilbert-sharded layout through its
// ShardRouter, a flat table as the same router over a one-shard wrap, and
// a live table as the one-shard view of its current epoch.
//
// K = 1 calls the shard's engine directly: no pruning, no covering, no
// re-basing and no shard.route span, so a flat table's rows, stats and
// profile are exactly its engine's.
//
// K > 1 first prunes shards whose bbox misses the query envelope — before
// any imprint work — then scatters filter+refine across the surviving
// shards on the point cloud's one morsel pool, and merges the local
// results in shard order. Because shards are contiguous runs of the
// Hilbert-sorted row space and every shard computes its exact local
// answer, the merged global row ids (and any aggregate over them) are
// bit-identical to a single engine over the sorted flat table, at every
// thread count and SIMD level. The merged filter/refine stats are the
// deterministic field-wise sum of the per-shard stats (per-shard imprints
// cover different cacheline populations than one whole-table imprint, so
// the unsharded counters are not reproducible, only the answers are).
//
// Covered shards (bbox-as-zonemap): a thematic-free box query that fully
// contains a shard's bbox selects every one of its rows by construction,
// so the view emits the shard's id range directly into the merged result
// without touching a column; such a shard contributes zero stats.
//
// Result cache (DESIGN.md §11): each shard engine caches its own local
// answers, keyed on its slice table id and column epochs. An append that
// replaces some shards therefore invalidates exactly those shards'
// entries; the others keep hitting.
//
// Live appends (DESIGN.md §13): ShardRouter::Append routes a batch to its
// shards by Hilbert start keys, extends each affected shard's columns
// copy-on-write and publishes a NEW immutable view. Readers pin a view per
// query or per SQL statement (one shared_ptr copy), so a concurrent
// append can never shift global row ids or replace a table version under
// them. For a persisted layout the replacement shard tables are written
// into next-generation directories and the shards.gsm manifest is swapped
// BEFORE the in-memory publish: the swap is the crash-commit point, so
// reopen always sees a complete old-or-new layout.
#ifndef GEOCOL_CORE_SHARD_ROUTER_H_
#define GEOCOL_CORE_SHARD_ROUTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columns/sharded_table.h"
#include "core/shard.h"
#include "core/spatial_engine.h"

namespace geocol {

/// An immutable shard set of one point cloud, pinned for the lifetime of
/// one query (or one SQL statement) through a shared_ptr. shards[i]
/// covers global rows [bases[i], bases[i] + shards[i]->num_rows()).
struct ShardsView {
  std::vector<std::shared_ptr<LocalShard>> shards;
  std::vector<uint64_t> bases;
  uint64_t total_rows = 0;
  /// Bumped by every publish (append or live epoch); equal versions of one
  /// point cloud are identical views.
  uint64_t version = 0;
  /// Persisted layout generation (0 for an in-memory or flat table).
  uint64_t generation = 0;
  /// Point-cloud name; keys the per-shard heat telemetry.
  std::string name;
  /// The point cloud's one pool: the scatter loop and every shard engine
  /// run on it. Null = serial.
  std::shared_ptr<ThreadPool> pool;

  /// The single shard's engine of a one-shard view, else null.
  SpatialQueryEngine* single_engine() const {
    return shards.size() == 1 ? &shards[0]->engine() : nullptr;
  }
  Schema schema() const { return shards[0]->table()->schema(); }

  /// Bounds of the x/y values: the union of the shard bboxes, or for one
  /// shard its x/y column stats.
  Result<Box> Extent() const;

  /// Spatial predicate plus conjunctive thematic ranges, as ascending
  /// global row ids.
  Result<SelectionResult> Select(const Geometry& geometry, double buffer,
                                 const std::vector<AttributeRange>& thematic)
      const;

  /// The NEAR join (SpatialQueryEngine::SelectNear), scattered per shard.
  /// features_matched counts each feature once, however many shards it
  /// matched in.
  Result<NearSelection> SelectNear(const std::vector<const Geometry*>& features,
                                   double distance,
                                   const std::vector<AttributeRange>& ranges)
      const;

  /// Aggregate of `column` over the selected points — bit-identical to
  /// the unsharded engine's Aggregate over the sorted flat table.
  Result<double> Aggregate(const Geometry& geometry, double buffer,
                           const std::vector<AttributeRange>& thematic,
                           const std::string& column, AggKind kind) const;

  /// Rebinds every shard engine's result-cache budget (0 = cache-off).
  /// Not thread-safe against queries in flight on this view.
  void set_cache_budget(uint64_t budget_bytes) const;
};

/// Owns one point cloud's shards and publishes its views. Built over a
/// Hilbert-sharded layout, or over ShardedTable::Wrap of a flat table.
///
/// Thread-safety: concurrent queries and concurrent Append calls are
/// safe: queries execute against a pinned view while appends publish
/// replacement views. Appends against one router serialise.
class ShardRouter {
 public:
  /// `options` configures every shard engine: num_threads sizes ONE pool
  /// shared by the scatter loop and all shard engines (nested morsel
  /// scheduling keeps it busy), and the cache binding applies per shard.
  explicit ShardRouter(std::shared_ptr<ShardedTable> table,
                       EngineOptions options = {});

  Schema schema() const { return View()->schema(); }
  /// Shard count is fixed at construction; appends never change it.
  size_t num_shards() const { return start_keys_.size(); }

  /// Pins the current view: one shared_ptr copy.
  std::shared_ptr<const ShardsView> View() const;

  /// Select / Aggregate over a freshly pinned view.
  Result<SelectionResult> SelectInBox(const Box& box) const {
    return Select(Geometry(box), 0.0, {});
  }
  Result<SelectionResult> Select(
      const Geometry& geometry, double buffer,
      const std::vector<AttributeRange>& thematic) const {
    return View()->Select(geometry, buffer, thematic);
  }
  Result<double> Aggregate(const Geometry& geometry, double buffer,
                           const std::vector<AttributeRange>& thematic,
                           const std::string& column, AggKind kind) const {
    return View()->Aggregate(geometry, buffer, thematic, column, kind);
  }

  /// Appends a batch (schema must equal the table's) as ONE atomic
  /// publish: rows are routed to shards by the Hilbert key of (x, y)
  /// scaled to the layout's fixed extent, each affected shard's columns
  /// are extended copy-on-write and its bbox grows to cover them, and —
  /// for a layout loaded from disk — the new shard tables land in
  /// next-generation directories with the shards.gsm manifest swap as the
  /// crash-commit point. Readers holding a view are untouched; new View()
  /// calls see all rows or none. Concurrent Append calls serialise.
  Status Append(const FlatTable& batch);

 private:
  std::shared_ptr<ShardedTable> table_;
  /// Hilbert key of each shard's first row (shard 0 owns everything below
  /// shard 1's key). Computed once — appends only extend shard tails, so
  /// first rows, and therefore routing, never change.
  std::vector<uint64_t> start_keys_;
  /// One pool for the scatter loop and every shard engine; null = serial.
  std::shared_ptr<ThreadPool> pool_;
  /// Guards view_ (the O(1) pin copy only).
  mutable std::mutex view_mu_;
  std::shared_ptr<const ShardsView> view_;
  /// Serialises Append calls (routing and the COW build happen outside
  /// view_mu_, so readers are never stalled behind an append).
  std::mutex append_mu_;
};

/// Global-row value access for the SQL layer over a pinned view: holds one
/// ColumnPtr per shard and translates global ids to shard-local ones. The
/// columns match the selection that produced the row ids even while
/// appends land.
class ShardedColumnReader {
 public:
  static Result<ShardedColumnReader> Make(const ShardsView& view,
                                          const std::string& column);

  /// Reads the values of `n` global rows, in any order, into `out`. Each
  /// run of rows within one shard is one batched column read, so a paged
  /// chunk faults once per run and a chunk fault returns its Status.
  Status GetDoubleBatch(const uint64_t* rows, size_t n, double* out) const;

  /// Aggregate of the column over `rows` (from a selection against the
  /// same view) on the shared aggregation core: bit-identical to
  /// AggregateRows over the equivalent flat column.
  Result<double> Aggregate(const std::vector<uint64_t>& rows, AggKind kind,
                           ThreadPool* pool = nullptr) const;

 private:
  ShardedColumnReader() = default;

  std::vector<ColumnPtr> columns_;  ///< one per shard
  std::vector<uint64_t> bases_;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_SHARD_ROUTER_H_
