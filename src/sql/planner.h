// The planner: resolves the FROM target against the catalog, validates
// referenced columns, and normalises the WHERE clause into the engine's
// native inputs (one spatial predicate + conjunctive attribute ranges).
#ifndef GEOCOL_SQL_PLANNER_H_
#define GEOCOL_SQL_PLANNER_H_

#include <memory>
#include <string>

#include "gis/catalog.h"
#include "sql/ast.h"
#include "util/status.h"

namespace geocol {
namespace sql {

/// A validated, normalised query ready for execution.
struct PlannedQuery {
  enum class Target { kPointCloud, kLayer };
  Target target = Target::kPointCloud;
  SelectStmt stmt;

  // Point-cloud target: the view pinned at plan time. Selection,
  // aggregation, ORDER BY and projection all read this one shard set, so
  // a statement sees one epoch end to end even while appends publish, and
  // its columns stay alive until the plan is dropped.
  std::shared_ptr<const ShardsView> view;
  /// The single shard's engine of a one-shard view (every flat table),
  /// else null.
  SpatialQueryEngine* engine = nullptr;

  // Layer target.
  std::shared_ptr<VectorLayer> layer;

  // Normalised spatial predicate (point-cloud and layer targets). A
  // point-cloud plan without NEAR always has one: when the statement
  // writes no geometry, or an unbuffered box, `geometry` is the query box,
  // with the x/y ranges folded in and any side the statement leaves open
  // taken from the table extent. A NEAR plan carries a box only when the
  // statement bounds x/y; the join filters it as x/y ranges.
  bool has_geometry = false;
  Geometry geometry;
  double buffer = 0.0;

  // NEAR(layer, class, d) join.
  bool near = false;
  std::shared_ptr<VectorLayer> near_layer;
  uint32_t near_class = 0;
  double near_distance = 0.0;

  // Merged attribute ranges (one entry per column; x/y only when they did
  // not fold into the query box).
  std::vector<AttributeRange> thematic;

  /// Human-readable plan (EXPLAIN output).
  std::string Describe() const;
};

/// Plans `stmt` against `catalog`.
Result<PlannedQuery> PlanQuery(Catalog* catalog, SelectStmt stmt);

/// Pseudo-columns exposed by vector layers.
bool IsLayerColumn(const std::string& name);

}  // namespace sql
}  // namespace geocol

#endif  // GEOCOL_SQL_PLANNER_H_
