// The catalog: named point-cloud tables (each wrapped by a spatial query
// engine) and named vector layers. This is what the SQL front end resolves
// FROM clauses against, and what the demo scenarios assemble.
#ifndef GEOCOL_GIS_CATALOG_H_
#define GEOCOL_GIS_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columns/column_file.h"
#include "core/live_table.h"
#include "core/shard_router.h"
#include "core/spatial_engine.h"
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

/// Named dataset registry.
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

  /// Registers a point cloud table; a SpatialQueryEngine is created over
  /// it with `options`.
  Status AddPointCloud(const std::string& name,
                       std::shared_ptr<FlatTable> table,
                       EngineOptions options = {});

  Status AddLayer(std::shared_ptr<VectorLayer> layer);

  /// Registers a Hilbert-sharded point cloud; queries route through a
  /// ShardRouter built with `options`. Shares the point-cloud/layer
  /// namespace.
  Status AddShardedPointCloud(const std::string& name,
                              std::shared_ptr<ShardedTable> table,
                              EngineOptions options = {});

  /// Registers a live (appendable) point cloud. Statements against it pin
  /// the table's current epoch snapshot at plan time, so appends landing
  /// mid-statement never shift rows or free columns under the executor.
  Status AddLivePointCloud(const std::string& name,
                           std::shared_ptr<LiveTable> table);

  bool HasPointCloud(const std::string& name) const {
    return engines_.count(name) != 0;
  }
  bool HasLayer(const std::string& name) const {
    return layers_.count(name) != 0;
  }
  bool HasShardedPointCloud(const std::string& name) const {
    return routers_.count(name) != 0;
  }
  bool HasLivePointCloud(const std::string& name) const {
    return live_tables_.count(name) != 0;
  }

  Result<SpatialQueryEngine*> GetEngine(const std::string& name);
  Result<std::shared_ptr<FlatTable>> GetTable(const std::string& name);
  Result<std::shared_ptr<VectorLayer>> GetLayer(const std::string& name);
  Result<ShardRouter*> GetRouter(const std::string& name);
  Result<std::shared_ptr<ShardedTable>> GetShardedTable(
      const std::string& name);
  Result<std::shared_ptr<LiveTable>> GetLiveTable(const std::string& name);

  std::vector<std::string> PointCloudNames() const;
  std::vector<std::string> LayerNames() const;
  std::vector<std::string> ShardedPointCloudNames() const;
  std::vector<std::string> LivePointCloudNames() const;

 private:
  bool NameTaken(const std::string& name) const {
    return engines_.count(name) != 0 || layers_.count(name) != 0 ||
           routers_.count(name) != 0 || live_tables_.count(name) != 0;
  }

  std::map<std::string, std::unique_ptr<SpatialQueryEngine>> engines_;
  std::map<std::string, std::shared_ptr<FlatTable>> tables_;
  std::map<std::string, std::shared_ptr<VectorLayer>> layers_;
  std::map<std::string, std::unique_ptr<ShardRouter>> routers_;
  std::map<std::string, std::shared_ptr<ShardedTable>> sharded_tables_;
  std::map<std::string, std::shared_ptr<LiveTable>> live_tables_;
};

}  // namespace geocol

#endif  // GEOCOL_GIS_CATALOG_H_
