// The catalog: named point clouds and named vector layers. This is what
// the SQL front end resolves FROM clauses against, and what the demo
// scenarios assemble. Every point cloud — flat, Hilbert-sharded or live —
// is registered the same way: as a function that pins its current
// ShardsView, so the planner, executor, cache and server batching run one
// path whatever the layout (a flat table is a one-shard view).
#ifndef GEOCOL_GIS_CATALOG_H_
#define GEOCOL_GIS_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columns/column_file.h"
#include "core/live_table.h"
#include "core/shard_router.h"
#include "gis/layer.h"
#include "util/status.h"

namespace geocol {

/// Whether the flat table under `dir` holds compressed (.gcz) columns.
/// Modern manifests record each column's file name; legacy ones fall back
/// to a directory listing.
bool IsCompressedTableDir(const std::string& dir, const TableManifest& m);

/// Opens the flat table persisted under `dir` in whichever layout it was
/// written: raw or compressed columns resident, or with `paged` from
/// disk on demand.
Result<FlatTable> OpenTableDir(const std::string& dir, bool paged = false);

/// Named dataset registry: point clouds and vector layers share one
/// namespace.
class Catalog {
 public:
  /// Opens the point cloud persisted under `dir` (a flat table in any
  /// layout, or a Hilbert-sharded one) and registers it under its table
  /// name, "ahn2" when it has none. Imprint sidecars are read from and
  /// written to the directory that holds the columns: `<dir>` for a flat
  /// table, each shard's own directory for a sharded one. So a process
  /// opening a loaded table adopts the x/y sidecars `geocol load` wrote
  /// instead of rebuilding them.
  Status AddPointCloudDir(const std::string& dir, bool paged = false);

  /// Registers a flat point-cloud table, wrapped in place as a one-shard
  /// layout (ShardedTable::Wrap) whose slice dir is
  /// `options.imprints_dir`.
  Status AddPointCloud(const std::string& name,
                       std::shared_ptr<FlatTable> table,
                       EngineOptions options = {});

  /// Registers a Hilbert-sharded point cloud; its views come from a
  /// ShardRouter built with `options`.
  Status AddShardedPointCloud(const std::string& name,
                              std::shared_ptr<ShardedTable> table,
                              EngineOptions options = {});

  /// Registers a live (appendable) point cloud. Its view is the current
  /// epoch's one-shard view, so a statement pinned at plan time reads one
  /// epoch end to end even while appender commits publish.
  Status AddLivePointCloud(const std::string& name,
                           std::shared_ptr<LiveTable> table);

  Status AddLayer(std::shared_ptr<VectorLayer> layer);

  bool HasPointCloud(const std::string& name) const {
    return point_clouds_.count(name) != 0;
  }
  bool HasLayer(const std::string& name) const {
    return layers_.count(name) != 0;
  }

  /// Pins the current view of point cloud `name`.
  Result<std::shared_ptr<const ShardsView>> View(const std::string& name) const;

  /// The engine (and table) of a one-shard point cloud. For a live table
  /// these belong to the current epoch and stay valid only while that
  /// epoch is pinned; pin View() instead to hold one.
  Result<SpatialQueryEngine*> GetEngine(const std::string& name) const;
  Result<std::shared_ptr<FlatTable>> GetTable(const std::string& name) const;
  Result<std::shared_ptr<VectorLayer>> GetLayer(const std::string& name);

  std::vector<std::string> PointCloudNames() const;
  std::vector<std::string> LayerNames() const;

 private:
  using PinView = std::function<std::shared_ptr<const ShardsView>()>;

  Status CheckNameFree(const std::string& name) const;
  Status AddPointCloudView(const std::string& name, PinView pin);

  std::map<std::string, PinView> point_clouds_;
  std::map<std::string, std::shared_ptr<VectorLayer>> layers_;
};

}  // namespace geocol

#endif  // GEOCOL_GIS_CATALOG_H_
