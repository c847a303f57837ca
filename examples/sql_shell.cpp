// Interactive SQL shell over a demo catalog — the library-form equivalent
// of the demo's front end, where "users will have the option to create and
// execute queries of their own" (§4.2).
//
// Usage: sql_shell [num_points]
// Meta-commands: \d (datasets), \plan (last plan), \profile (last
// operator times), \q (quit).
#include <cstdio>
#include <cstring>
#include <string>

#include "gis/catalog.h"
#include "pointcloud/generator.h"
#include "pointcloud/vector_gen.h"
#include "sql/session.h"

using namespace geocol;

int main(int argc, char** argv) {
  uint64_t num_points = 200000;
  if (argc > 1) num_points = std::strtoull(argv[1], nullptr, 10);

  std::printf("GeoColumn SQL shell — generating demo catalog (%llu points)"
              "...\n", static_cast<unsigned long long>(num_points));
  AhnGeneratorOptions options;
  options.extent = Box(85000, 444000, 85500, 444500);
  AhnGenerator generator(options);
  auto table = generator.GenerateTable(num_points);
  if (!table.ok()) return 1;

  Catalog catalog;
  if (!catalog.AddPointCloud("ahn2", *table).ok()) return 1;
  TerrainModel terrain(options.seed);
  OsmGenerator osm(21, options.extent, terrain);
  auto roads = osm.GenerateRoads(50);
  if (!catalog.AddLayer(VectorLayer::FromFeatures("osm", roads)).ok()) return 1;
  UrbanAtlasGenerator ua(22, options.extent, terrain);
  auto land = ua.GenerateLandUse(10);
  for (auto& c : ua.GenerateTransitCorridors(roads, 20.0)) land.push_back(c);
  if (!catalog.AddLayer(VectorLayer::FromFeatures("urban_atlas", land)).ok()) {
    return 1;
  }

  sql::Session session(&catalog);
  std::printf(
      "datasets: ahn2 (point cloud), osm, urban_atlas (vector layers)\n"
      "try:  SELECT COUNT(*) FROM ahn2 WHERE ST_Within(pt, 'BOX(85100 "
      "444100, 85200 444200)');\n"
      "      SELECT AVG(z) FROM ahn2 WHERE NEAR(urban_atlas, 12210, 25);\n"
      "meta: \\d  \\plan  \\profile  \\q\n\n");

  char line[4096];
  while (true) {
    std::printf("geocol> ");
    std::fflush(stdout);
    if (std::fgets(line, sizeof(line), stdin) == nullptr) break;
    std::string input(line);
    while (!input.empty() && (input.back() == '\n' || input.back() == '\r')) {
      input.pop_back();
    }
    if (input.empty()) continue;
    if (input == "\\q" || input == "quit" || input == "exit") break;
    if (input == "\\d") {
      for (const auto& name : catalog.PointCloudNames()) {
        auto view = catalog.View(name).value();
        std::printf("  %s  point cloud, %llu rows, %zu columns, %zu shard(s)\n",
                    name.c_str(),
                    static_cast<unsigned long long>(view->total_rows),
                    view->schema().num_fields(), view->shards.size());
      }
      for (const auto& name : catalog.LayerNames()) {
        auto l = catalog.GetLayer(name);
        std::printf("  %s  vector layer, %zu features\n", name.c_str(),
                    (*l)->size());
      }
      continue;
    }
    if (input == "\\plan") {
      std::printf("%s\n", session.last_plan().c_str());
      continue;
    }
    if (input == "\\profile") {
      std::printf("%s\n", session.last_profile().ToString().c_str());
      continue;
    }
    auto rs = session.Execute(input);
    if (!rs.ok()) {
      std::printf("error: %s\n", rs.status().ToString().c_str());
      continue;
    }
    std::printf("%s\n", rs->ToString(40).c_str());
  }
  std::printf("bye\n");
  return 0;
}
