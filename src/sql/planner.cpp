#include "sql/planner.h"

#include <algorithm>
#include <limits>
#include <map>

#include "geom/wkt.h"

namespace geocol {
namespace sql {

bool IsLayerColumn(const std::string& name) {
  return name == "id" || name == "class" || name == "name" || name == "geom";
}

namespace {

Status ValidateItems(const PlannedQuery& pq, const Schema* schema) {
  for (const SelectItem& it : pq.stmt.items) {
    if (it.star) continue;
    if (pq.target == PlannedQuery::Target::kLayer) {
      if (!IsLayerColumn(it.column)) {
        return Status::NotFound("no column '" + it.column + "' in layer '" +
                                pq.stmt.table + "'");
      }
      if (it.agg != AggFunc::kNone && it.column == "geom") {
        return Status::InvalidArgument("cannot aggregate geometry column");
      }
      if (it.agg != AggFunc::kNone && it.column == "name" &&
          it.agg != AggFunc::kCount) {
        return Status::InvalidArgument("cannot aggregate text column 'name'");
      }
    } else {
      if (!schema->HasField(it.column)) {
        return Status::NotFound("no column '" + it.column + "' in table '" +
                                pq.stmt.table + "'");
      }
    }
  }
  return Status::OK();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The query box (DESIGN.md §3): a point-cloud plan whose geometry is
/// absent or an unbuffered box is an imprint filter on x and y and nothing
/// else, so its x/y ranges fold into that box instead of filtering x and y
/// twice. A side the statement leaves open takes the point cloud's extent
/// (the union of the pinned shards' bboxes). A NEAR plan's box only
/// narrows the joined rows, so it stays as written and exists only when
/// the statement bounds something. Polygon and ST_DWithin plans keep x/y
/// as ranges: refinement needs the exact geometry.
Status FoldQueryBox(PlannedQuery* pq) {
  if (pq->target != PlannedQuery::Target::kPointCloud) return Status::OK();
  if (pq->has_geometry && !(pq->geometry.is_box() && pq->buffer == 0.0)) {
    return Status::OK();
  }
  Box box = pq->has_geometry ? pq->geometry.box()
                             : Box(-kInf, -kInf, kInf, kInf);
  bool bounded = pq->has_geometry || !pq->near;
  std::vector<AttributeRange> rest;
  for (const AttributeRange& a : pq->thematic) {
    if (a.column == "x") {
      box.min_x = std::max(box.min_x, a.lo);
      box.max_x = std::min(box.max_x, a.hi);
    } else if (a.column == "y") {
      box.min_y = std::max(box.min_y, a.lo);
      box.max_y = std::min(box.max_y, a.hi);
    } else {
      rest.push_back(a);
      continue;
    }
    bounded = true;
  }
  if (!bounded) return Status::OK();
  pq->thematic = std::move(rest);
  if (!pq->near && (box.min_x == -kInf || box.min_y == -kInf ||
                    box.max_x == kInf || box.max_y == kInf)) {
    GEOCOL_ASSIGN_OR_RETURN(Box extent, pq->view->Extent());
    if (box.min_x == -kInf) box.min_x = extent.min_x;
    if (box.min_y == -kInf) box.min_y = extent.min_y;
    if (box.max_x == kInf) box.max_x = extent.max_x;
    if (box.max_y == kInf) box.max_y = extent.max_y;
  }
  pq->has_geometry = true;
  pq->geometry = Geometry(box);
  return Status::OK();
}

}  // namespace

Result<PlannedQuery> PlanQuery(Catalog* catalog, SelectStmt stmt) {
  PlannedQuery pq;
  if (stmt.items.empty()) {
    return Status::InvalidArgument("SQL: empty select list");
  }
  // Aggregates and plain columns cannot mix (no GROUP BY in the dialect).
  bool any_agg = false, any_plain = false;
  for (const SelectItem& it : stmt.items) {
    (it.agg != AggFunc::kNone ? any_agg : any_plain) = true;
  }
  if (any_agg && any_plain) {
    return Status::InvalidArgument(
        "SQL: mixing aggregates and plain columns requires GROUP BY, which "
        "this dialect does not support");
  }

  // Resolve FROM.
  Schema schema;
  if (catalog->HasPointCloud(stmt.table)) {
    pq.target = PlannedQuery::Target::kPointCloud;
    GEOCOL_ASSIGN_OR_RETURN(pq.view, catalog->View(stmt.table));
    pq.engine = pq.view->single_engine();
    schema = pq.view->schema();
  } else if (catalog->HasLayer(stmt.table)) {
    pq.target = PlannedQuery::Target::kLayer;
    GEOCOL_ASSIGN_OR_RETURN(pq.layer, catalog->GetLayer(stmt.table));
  } else {
    return Status::NotFound("unknown dataset '" + stmt.table + "'");
  }

  // Normalise spatial predicates: at most one geometry predicate and at
  // most one NEAR join.
  for (SpatialPred& sp : stmt.spatial) {
    if (sp.kind == SpatialPred::Kind::kNearLayer) {
      if (pq.near) {
        return Status::Unsupported("SQL: multiple NEAR predicates");
      }
      if (pq.target == PlannedQuery::Target::kLayer) {
        return Status::Unsupported("SQL: NEAR on a vector layer");
      }
      GEOCOL_ASSIGN_OR_RETURN(pq.near_layer, catalog->GetLayer(sp.layer));
      pq.near = true;
      pq.near_class = sp.feature_class;
      pq.near_distance = sp.distance;
    } else {
      if (pq.has_geometry) {
        return Status::Unsupported("SQL: multiple spatial predicates");
      }
      pq.has_geometry = true;
      pq.geometry = sp.geometry;
      pq.buffer = sp.kind == SpatialPred::Kind::kDWithin ? sp.distance : 0.0;
    }
  }

  // NEAR refines against the layer's features; on top of it only a box
  // can apply, as x/y ranges of the join's base mask.
  if (pq.near && pq.has_geometry &&
      !(pq.geometry.is_box() && pq.buffer == 0.0)) {
    return Status::Unsupported(
        "SQL: NEAR with a polygon or ST_DWithin predicate");
  }

  // Merge attribute ranges per column.
  std::map<std::string, AttributeRange> merged;
  for (const RangePred& r : stmt.ranges) {
    if (pq.target == PlannedQuery::Target::kLayer) {
      if (r.column != "id" && r.column != "class") {
        return Status::NotFound("no numeric column '" + r.column +
                                "' in layer '" + stmt.table + "'");
      }
    } else if (!schema.HasField(r.column)) {
      return Status::NotFound("no column '" + r.column + "' in table '" +
                              stmt.table + "'");
    }
    auto [it, inserted] = merged.emplace(
        r.column, AttributeRange{r.column, r.lo, r.hi});
    if (!inserted) {
      it->second.lo = std::max(it->second.lo, r.lo);
      it->second.hi = std::min(it->second.hi, r.hi);
    }
  }
  for (auto& [col, range] : merged) pq.thematic.push_back(range);

  // ORDER BY validation.
  if (!stmt.order_by.empty()) {
    if (stmt.IsAggregate()) {
      return Status::InvalidArgument("SQL: ORDER BY with aggregates");
    }
    if (pq.target == PlannedQuery::Target::kLayer) {
      if (!IsLayerColumn(stmt.order_by) || stmt.order_by == "geom") {
        return Status::NotFound("SQL: cannot ORDER BY '" + stmt.order_by +
                                "' on a layer");
      }
    } else if (!schema.HasField(stmt.order_by)) {
      return Status::NotFound("SQL: no ORDER BY column '" + stmt.order_by +
                              "'");
    }
  }

  pq.stmt = std::move(stmt);
  GEOCOL_RETURN_NOT_OK(
      ValidateItems(pq, pq.target == PlannedQuery::Target::kPointCloud
                            ? &schema
                            : nullptr));
  GEOCOL_RETURN_NOT_OK(FoldQueryBox(&pq));
  return pq;
}

std::string PlannedQuery::Describe() const {
  std::string s;
  s += "plan for: " + stmt.ToString() + "\n";
  const size_t shards = view != nullptr ? view->shards.size() : 0;
  s += std::string("  target: ") +
       (target == Target::kLayer
            ? std::string("vector layer (envelope R-tree)")
            : shards > 1 ? "sharded point cloud (" + std::to_string(shards) +
                               " Hilbert shards + imprints)"
                         : std::string("point cloud (flat table + imprints)")) +
       " '" + stmt.table + "'\n";
  if (shards > 1) {
    s += "  step 0: bbox-prune shards against query envelope, "
         "scatter-gather the rest\n";
  }
  if (near) {
    s += "  join: NEAR layer '" + near_layer->name() + "' class " +
         std::to_string(near_class) + " within " +
         std::to_string(near_distance) + " (one row bitmap)\n";
    if (has_geometry || !thematic.empty()) {
      s += "  step 1: imprint filter on the box and thematic ranges into a "
           "base mask\n";
    }
    if (has_geometry) {
      s += "  box: x/y inside " + ToWkt(geometry) + "\n";
    }
    s += "  step 2: per feature, imprint filter on x/y over its buffered "
         "envelope, AND the base mask, AND NOT the rows already selected, "
         "then grid refinement into the selection bitmap\n";
  } else if (has_geometry) {
    s += "  step 1: imprint filter on x/y over envelope of " +
         ToWkt(geometry) + (buffer > 0 ? " buffered " + std::to_string(buffer)
                                       : std::string()) +
         "\n";
    s += geometry.is_box() && buffer == 0.0
             ? "  step 2: none (the box filter is exact)\n"
             : "  step 2: regular-grid refinement, exact tests on boundary "
               "cells\n";
  }
  for (const AttributeRange& a : thematic) {
    s += "  thematic: imprint filter on " + a.column + " in [" +
         std::to_string(a.lo) + ", " + std::to_string(a.hi) + "]\n";
  }
  if (!has_geometry && !near && thematic.empty()) {
    s += "  full scan (no predicates)\n";
  }
  if (stmt.IsAggregate()) s += "  aggregate over selection\n";
  if (!stmt.order_by.empty()) {
    s += "  sort by " + stmt.order_by + (stmt.order_desc ? " desc" : " asc") +
         "\n";
  }
  if (stmt.limit >= 0) s += "  limit " + std::to_string(stmt.limit) + "\n";
  return s;
}

}  // namespace sql
}  // namespace geocol
