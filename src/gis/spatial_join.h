// Cross-dataset operations of scenario 2 (§4.2): combining the point cloud
// with vector layers through spatial predicates — "select all LIDAR points
// that are near a given area that is characterised as a fast transit road
// according to the Urban Atlas nomenclature".
#ifndef GEOCOL_GIS_SPATIAL_JOIN_H_
#define GEOCOL_GIS_SPATIAL_JOIN_H_

#include <vector>

#include "core/shard_router.h"
#include "gis/layer.h"

namespace geocol {

/// Result of a point-cloud x layer join: the ascending, unique point rows,
/// the number of layer features that added at least one row, and the span
/// tree (layer.class_select, then the engine's near subtree).
using NearLayerResult = NearSelection;

/// Selects points of `engine`'s table within `distance` of any feature of
/// `layer` carrying `feature_class` (pass 0 to accept every class): a class
/// select, then one SpatialQueryEngine::SelectNear over the features in
/// layer order.
Result<NearLayerResult> PointsNearLayerClass(SpatialQueryEngine* engine,
                                             VectorLayer* layer,
                                             uint32_t feature_class,
                                             double distance);

/// As above, keeping only the points whose `ranges` columns all lie in
/// their [lo, hi]. The engine filters the ranges before refinement, so a
/// NaN value never qualifies.
Result<NearLayerResult> PointsNearLayerClass(
    SpatialQueryEngine* engine, VectorLayer* layer, uint32_t feature_class,
    double distance, const std::vector<AttributeRange>& ranges);

/// As above over a pinned point-cloud view (any shard count): one
/// ShardsView::SelectNear, whose row ids are global.
Result<NearLayerResult> PointsNearLayerClass(
    const ShardsView& view, VectorLayer* layer, uint32_t feature_class,
    double distance, const std::vector<AttributeRange>& ranges);

/// Aggregates `column` over the points selected by PointsNearLayerClass —
/// e.g. "compute the average elevation of the LIDAR points that are near
/// a fast transit road".
Result<double> AggregateNearLayerClass(SpatialQueryEngine* engine,
                                       VectorLayer* layer,
                                       uint32_t feature_class, double distance,
                                       const std::string& column, AggKind kind);

/// Layer-layer join: indexes of features in `a` intersecting any feature
/// of `b` with class `b_class` (0 = any).
std::vector<uint64_t> LayerIntersectingLayer(VectorLayer* a, VectorLayer* b,
                                             uint32_t b_class);

}  // namespace geocol

#endif  // GEOCOL_GIS_SPATIAL_JOIN_H_
