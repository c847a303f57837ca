#include "gis/catalog.h"

#include "columns/compression.h"
#include "columns/paged_column.h"
#include "util/binary_io.h"
#include "util/tempdir.h"

namespace geocol {

bool IsCompressedTableDir(const std::string& dir, const TableManifest& m) {
  if (!m.columns.empty() && !m.columns[0].filename.empty()) {
    const std::string& f = m.columns[0].filename;
    return f.size() >= 4 && f.compare(f.size() - 4, 4, ".gcz") == 0;
  }
  std::vector<std::string> gcz;
  Status st = ListFiles(dir, ".gcz", &gcz);
  return st.ok() && !gcz.empty();
}

Result<FlatTable> OpenTableDir(const std::string& dir, bool paged) {
  if (!PathExists(dir + "/schema.gct")) {
    return Status::NotFound("no table manifest under " + dir);
  }
  if (paged) return ReadTableDirPaged(dir);
  GEOCOL_ASSIGN_OR_RETURN(TableManifest m, ReadTableManifest(dir));
  return IsCompressedTableDir(dir, m) ? ReadCompressedTableDir(dir)
                                      : ReadTableDir(dir);
}

Status Catalog::AddPointCloudDir(const std::string& dir, bool paged) {
  if (IsShardedTableDir(dir)) {
    // Each LocalShard keeps its sidecars in its own shard directory.
    GEOCOL_ASSIGN_OR_RETURN(
        auto sharded,
        ReadShardedTableDir(dir, /*verify_checksums=*/true, paged));
    const std::string name =
        sharded->name().empty() ? "ahn2" : sharded->name();
    return AddShardedPointCloud(name, std::move(sharded));
  }
  GEOCOL_ASSIGN_OR_RETURN(FlatTable table, OpenTableDir(dir, paged));
  const std::string name = table.name().empty() ? "ahn2" : table.name();
  EngineOptions options;
  options.imprints_dir = dir;
  return AddPointCloud(name, std::make_shared<FlatTable>(std::move(table)),
                       options);
}

Status Catalog::AddPointCloud(const std::string& name,
                              std::shared_ptr<FlatTable> table,
                              EngineOptions options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  return AddShardedPointCloud(
      name, ShardedTable::Wrap(std::move(table), options.imprints_dir),
      options);
}

Status Catalog::AddShardedPointCloud(const std::string& name,
                                     std::shared_ptr<ShardedTable> table,
                                     EngineOptions options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  GEOCOL_RETURN_NOT_OK(CheckNameFree(name));
  auto router = std::make_shared<ShardRouter>(std::move(table), options);
  return AddPointCloudView(name, [router] { return router->View(); });
}

Status Catalog::AddLivePointCloud(const std::string& name,
                                  std::shared_ptr<LiveTable> table) {
  if (table == nullptr) return Status::InvalidArgument("null live table");
  return AddPointCloudView(name, [table] { return table->Pin().view; });
}

Status Catalog::CheckNameFree(const std::string& name) const {
  if (HasPointCloud(name) || HasLayer(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  return Status::OK();
}

Status Catalog::AddPointCloudView(const std::string& name, PinView pin) {
  GEOCOL_RETURN_NOT_OK(CheckNameFree(name));
  point_clouds_[name] = std::move(pin);
  return Status::OK();
}

Status Catalog::AddLayer(std::shared_ptr<VectorLayer> layer) {
  if (layer == nullptr) return Status::InvalidArgument("null layer");
  const std::string& name = layer->name();
  GEOCOL_RETURN_NOT_OK(CheckNameFree(name));
  layers_[name] = std::move(layer);
  return Status::OK();
}

Result<std::shared_ptr<const ShardsView>> Catalog::View(
    const std::string& name) const {
  auto it = point_clouds_.find(name);
  if (it == point_clouds_.end()) {
    return Status::NotFound("no point cloud '" + name + "'");
  }
  return it->second();
}

Result<std::shared_ptr<FlatTable>> Catalog::GetTable(
    const std::string& name) const {
  GEOCOL_ASSIGN_OR_RETURN(std::shared_ptr<const ShardsView> view, View(name));
  if (view->shards.size() != 1) {
    return Status::InvalidArgument("point cloud '" + name + "' has " +
                                   std::to_string(view->shards.size()) +
                                   " shards, not one table");
  }
  return view->shards[0]->table();
}

Result<SpatialQueryEngine*> Catalog::GetEngine(const std::string& name) const {
  GEOCOL_RETURN_NOT_OK(GetTable(name).status());
  return View(name).value()->single_engine();
}

Result<std::shared_ptr<VectorLayer>> Catalog::GetLayer(
    const std::string& name) {
  auto it = layers_.find(name);
  if (it == layers_.end()) {
    return Status::NotFound("no layer '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Catalog::PointCloudNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : point_clouds_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::LayerNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : layers_) out.push_back(name);
  return out;
}

}  // namespace geocol
