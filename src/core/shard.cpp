#include "core/shard.h"

namespace geocol {

namespace {

/// Persisted shards keep imprint sidecars next to their column files;
/// in-memory shards build in memory only.
EngineOptions ShardOptions(const EngineOptions& options,
                           const std::string& dir) {
  EngineOptions shard_options = options;
  shard_options.imprints_dir = dir;
  return shard_options;
}

}  // namespace

LocalShard::LocalShard(const ShardSlice& slice, const EngineOptions& options,
                       const std::string& x_column,
                       const std::string& y_column, ThreadPool* pool,
                       std::shared_ptr<ImprintManager> imprints)
    : table_(slice.table),
      bbox_(slice.bbox),
      engine_(slice.table, ShardOptions(options, slice.dir), x_column,
              y_column, pool, std::move(imprints)) {}

}  // namespace geocol
