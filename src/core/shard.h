// One shard of a point cloud: a slice table plus the spatial query engine
// that answers for it. Every registered point cloud is a ShardsView over
// K >= 1 of these (DESIGN.md §12): a Hilbert-sharded layout holds one per
// shard, a flat table is wrapped as a single shard at base 0, and a live
// table pins one per published epoch. All row ids in and out of a shard
// are LOCAL (0-based within the shard); the view translates to global
// ids through the shard's base offset.
#ifndef GEOCOL_CORE_SHARD_H_
#define GEOCOL_CORE_SHARD_H_

#include <memory>
#include <string>
#include <vector>

#include "columns/sharded_table.h"
#include "core/spatial_engine.h"

namespace geocol {

/// In-process shard: wraps a ShardSlice's table with a SpatialQueryEngine
/// that executes on a borrowed morsel pool (the one pool of its point
/// cloud). The engine carries the point cloud's result-cache binding; its
/// keys embed the slice table's id and column epochs, so an append that
/// replaces this shard invalidates exactly this shard's entries. When the
/// slice has a directory, imprint sidecars live there next to its column
/// files.
class LocalShard {
 public:
  /// `options` is the point cloud's engine configuration; the imprints
  /// sidecar dir is pointed at `slice.dir`. A non-null `imprints` is an
  /// existing, pre-configured manager to share: a replacement shard after
  /// an append, or a live table's epoch shard. Appended columns then
  /// extend their lineage base's imprints incrementally instead of
  /// rebuilding, and untouched columns keep their index.
  LocalShard(const ShardSlice& slice, const EngineOptions& options,
             const std::string& x_column, const std::string& y_column,
             ThreadPool* pool,
             std::shared_ptr<ImprintManager> imprints = nullptr);

  uint64_t num_rows() const { return table_->num_rows(); }

  /// Tight bounds of the shard's points, which the view prunes against.
  /// Empty for a rowless shard and for a wrapped flat table, whose one
  /// shard is never pruned.
  const Box& bbox() const { return bbox_; }

  const std::shared_ptr<FlatTable>& table() const { return table_; }
  Result<ColumnPtr> GetColumn(const std::string& name) const {
    return table_->GetColumn(name);
  }

  SpatialQueryEngine& engine() { return engine_; }

 private:
  std::shared_ptr<FlatTable> table_;
  Box bbox_;
  SpatialQueryEngine engine_;
};

}  // namespace geocol

#endif  // GEOCOL_CORE_SHARD_H_
