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
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  tables_[name] = table;
  engines_[name] =
      std::make_unique<SpatialQueryEngine>(std::move(table), options);
  return Status::OK();
}

Status Catalog::AddShardedPointCloud(const std::string& name,
                                     std::shared_ptr<ShardedTable> table,
                                     EngineOptions options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  sharded_tables_[name] = table;
  routers_[name] = std::make_unique<ShardRouter>(std::move(table), options);
  return Status::OK();
}

Status Catalog::AddLivePointCloud(const std::string& name,
                                  std::shared_ptr<LiveTable> table) {
  if (table == nullptr) return Status::InvalidArgument("null live table");
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  live_tables_[name] = std::move(table);
  return Status::OK();
}

Status Catalog::AddLayer(std::shared_ptr<VectorLayer> layer) {
  if (layer == nullptr) return Status::InvalidArgument("null layer");
  const std::string& name = layer->name();
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  layers_[name] = std::move(layer);
  return Status::OK();
}

Result<SpatialQueryEngine*> Catalog::GetEngine(const std::string& name) {
  auto it = engines_.find(name);
  if (it == engines_.end()) {
    return Status::NotFound("no point cloud '" + name + "'");
  }
  return it->second.get();
}

Result<std::shared_ptr<FlatTable>> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no point cloud '" + name + "'");
  }
  return it->second;
}

Result<std::shared_ptr<VectorLayer>> Catalog::GetLayer(
    const std::string& name) {
  auto it = layers_.find(name);
  if (it == layers_.end()) {
    return Status::NotFound("no layer '" + name + "'");
  }
  return it->second;
}

Result<ShardRouter*> Catalog::GetRouter(const std::string& name) {
  auto it = routers_.find(name);
  if (it == routers_.end()) {
    return Status::NotFound("no sharded point cloud '" + name + "'");
  }
  return it->second.get();
}

Result<std::shared_ptr<ShardedTable>> Catalog::GetShardedTable(
    const std::string& name) {
  auto it = sharded_tables_.find(name);
  if (it == sharded_tables_.end()) {
    return Status::NotFound("no sharded point cloud '" + name + "'");
  }
  return it->second;
}

Result<std::shared_ptr<LiveTable>> Catalog::GetLiveTable(
    const std::string& name) {
  auto it = live_tables_.find(name);
  if (it == live_tables_.end()) {
    return Status::NotFound("no live point cloud '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> Catalog::PointCloudNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : engines_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::LayerNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : layers_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::ShardedPointCloudNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : routers_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::LivePointCloudNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : live_tables_) out.push_back(name);
  return out;
}

}  // namespace geocol
