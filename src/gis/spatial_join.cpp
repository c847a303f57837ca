#include "gis/spatial_join.h"

#include "geom/predicates.h"
#include "util/timer.h"

namespace geocol {

Result<NearLayerResult> PointsNearLayerClass(SpatialQueryEngine* engine,
                                             VectorLayer* layer,
                                             uint32_t feature_class,
                                             double distance) {
  return PointsNearLayerClass(engine, layer, feature_class, distance, {});
}

namespace {

/// The join around `select_near`: a class select over `layer` (recorded
/// as the layer.class_select span), then one NEAR selection over the
/// chosen features in layer order, whose span tree follows.
template <typename SelectNearFn>
Result<NearLayerResult> NearLayerClass(VectorLayer* layer,
                                       uint32_t feature_class,
                                       const SelectNearFn& select_near) {
  QueryProfile profile;
  Timer t;
  std::vector<uint64_t> feature_idx;
  if (feature_class == 0) {
    feature_idx.resize(layer->size());
    for (size_t i = 0; i < layer->size(); ++i) feature_idx[i] = i;
  } else {
    feature_idx = layer->SelectByClass(feature_class);
  }
  std::vector<const Geometry*> features;
  features.reserve(feature_idx.size());
  for (uint64_t fi : feature_idx) {
    features.push_back(&layer->feature(fi).geometry);
  }
  profile.Add("layer.class_select", t.ElapsedNanos(), layer->size(),
              feature_idx.size());
  GEOCOL_ASSIGN_OR_RETURN(NearLayerResult result, select_near(features));
  profile.Append(result.profile);
  result.profile = std::move(profile);
  return result;
}

}  // namespace

Result<NearLayerResult> PointsNearLayerClass(
    SpatialQueryEngine* engine, VectorLayer* layer, uint32_t feature_class,
    double distance, const std::vector<AttributeRange>& ranges) {
  return NearLayerClass(layer, feature_class, [&](const auto& features) {
    return engine->SelectNear(features, distance, ranges);
  });
}

Result<NearLayerResult> PointsNearLayerClass(
    const ShardsView& view, VectorLayer* layer, uint32_t feature_class,
    double distance, const std::vector<AttributeRange>& ranges) {
  return NearLayerClass(layer, feature_class, [&](const auto& features) {
    return view.SelectNear(features, distance, ranges);
  });
}

Result<double> AggregateNearLayerClass(SpatialQueryEngine* engine,
                                       VectorLayer* layer,
                                       uint32_t feature_class, double distance,
                                       const std::string& column,
                                       AggKind kind) {
  GEOCOL_ASSIGN_OR_RETURN(
      NearLayerResult near,
      PointsNearLayerClass(engine, layer, feature_class, distance));
  if (kind == AggKind::kCount) {
    return static_cast<double>(near.row_ids.size());
  }
  GEOCOL_ASSIGN_OR_RETURN(ColumnPtr col, engine->table().GetColumn(column));
  return AggregateRows(*col, near.row_ids, kind);
}

std::vector<uint64_t> LayerIntersectingLayer(VectorLayer* a, VectorLayer* b,
                                             uint32_t b_class) {
  std::vector<uint64_t> out;
  std::vector<uint64_t> b_features;
  if (b_class == 0) {
    b_features.resize(b->size());
    for (size_t i = 0; i < b->size(); ++i) b_features[i] = i;
  } else {
    b_features = b->SelectByClass(b_class);
  }
  std::vector<bool> hit(a->size(), false);
  for (uint64_t bi : b_features) {
    const Geometry& bg = b->feature(bi).geometry;
    for (uint64_t ai : a->QueryIntersecting(bg)) hit[ai] = true;
  }
  for (size_t i = 0; i < hit.size(); ++i) {
    if (hit[i]) out.push_back(i);
  }
  return out;
}

}  // namespace geocol
