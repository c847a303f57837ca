// GIS layer tests: vector generators, layers, catalog, and the scenario-2
// point-cloud x layer joins, including the brute-force NEAR differential.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "cache/query_cache.h"
#include "columns/column_file.h"
#include "columns/paged_column.h"
#include "columns/sharded_table.h"
#include "core/live_table.h"
#include "core/table_appender.h"
#include "geom/predicates.h"
#include "gis/catalog.h"
#include "gis/spatial_join.h"
#include "pointcloud/generator.h"
#include "pointcloud/vector_gen.h"
#include "sql/session.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

const Box kExtent(85000, 444000, 86000, 445000);

TEST(VectorGenTest, RoadsHaveClassesAndGeometry) {
  TerrainModel terrain(1);
  OsmGenerator gen(1, kExtent, terrain);
  auto roads = gen.GenerateRoads(50);
  EXPECT_EQ(roads.size(), 50u);
  std::set<uint32_t> classes;
  for (const auto& r : roads) {
    EXPECT_TRUE(r.geometry.is_line());
    EXPECT_GE(r.geometry.line().points.size(), 2u);
    EXPECT_FALSE(r.name.empty());
    classes.insert(r.feature_class);
    // All vertices inside the extent.
    Box env = r.geometry.Envelope();
    EXPECT_TRUE(kExtent.Contains(env)) << r.name;
  }
  EXPECT_GE(classes.size(), 2u) << "expected a mix of road classes";
}

TEST(VectorGenTest, Deterministic) {
  TerrainModel terrain(2);
  OsmGenerator g1(7, kExtent, terrain), g2(7, kExtent, terrain);
  auto r1 = g1.GenerateRoads(10);
  auto r2 = g2.GenerateRoads(10);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].geometry.line().points.size(),
              r2[i].geometry.line().points.size());
  }
}

TEST(VectorGenTest, PoisClusterInUrbanAreas) {
  TerrainModel terrain(3);
  OsmGenerator gen(3, kExtent, terrain);
  auto pois = gen.GeneratePois(200);
  EXPECT_GT(pois.size(), 0u);
  for (const auto& p : pois) EXPECT_TRUE(p.geometry.is_point());
}

TEST(VectorGenTest, LandUseCoversExtent) {
  TerrainModel terrain(4);
  UrbanAtlasGenerator gen(4, kExtent, terrain);
  auto blocks = gen.GenerateLandUse(8);
  EXPECT_EQ(blocks.size(), 64u);
  double area = 0;
  for (const auto& b : blocks) {
    ASSERT_TRUE(b.geometry.is_polygon());
    area += b.geometry.polygon().Area();
    EXPECT_STRNE(UrbanAtlasClassName(
                     static_cast<UrbanAtlasClass>(b.feature_class)),
                 "Unknown");
  }
  EXPECT_NEAR(area, kExtent.area(), kExtent.area() * 1e-9);
}

TEST(VectorGenTest, TransitCorridorsOnlyFromMotorways) {
  TerrainModel terrain(5);
  OsmGenerator og(5, kExtent, terrain);
  UrbanAtlasGenerator ug(5, kExtent, terrain);
  auto roads = og.GenerateRoads(100);
  auto corridors = ug.GenerateTransitCorridors(roads, 25.0);
  size_t motorways = 0;
  for (const auto& r : roads) {
    motorways += r.feature_class == static_cast<uint32_t>(RoadClass::kMotorway);
  }
  EXPECT_EQ(corridors.size(), motorways);
  for (const auto& c : corridors) {
    EXPECT_EQ(c.feature_class,
              static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads));
    EXPECT_TRUE(c.geometry.is_multipolygon());
  }
}

TEST(BufferLineTest, CorridorContainsPointsNearLine) {
  LineString l;
  l.points = {{0, 0}, {100, 0}, {100, 100}};
  MultiPolygon corridor = BufferLine(l, 10.0);
  Geometry g(corridor);
  EXPECT_TRUE(GeometryContainsPoint(g, {50, 5}));
  EXPECT_TRUE(GeometryContainsPoint(g, {50, -5}));
  EXPECT_TRUE(GeometryContainsPoint(g, {105, 50}));
  EXPECT_TRUE(GeometryContainsPoint(g, {100, 0}));  // joint
  EXPECT_FALSE(GeometryContainsPoint(g, {50, 50}));
  EXPECT_FALSE(GeometryContainsPoint(g, {50, 20}));
}

// ---------------- VectorLayer ----------------

std::shared_ptr<VectorLayer> MakeTestLayer() {
  std::vector<VectorFeature> fs;
  VectorFeature a;
  a.id = 1;
  a.geometry = Geometry(Polygon::FromBox(Box(0, 0, 10, 10)));
  a.feature_class = 100;
  a.name = "a";
  VectorFeature b;
  b.id = 2;
  b.geometry = Geometry(Polygon::FromBox(Box(20, 20, 30, 30)));
  b.feature_class = 200;
  b.name = "b";
  VectorFeature c;
  c.id = 3;
  LineString l;
  l.points = {{0, 15}, {30, 15}};
  c.geometry = Geometry(l);
  c.feature_class = 100;
  c.name = "c";
  fs = {a, b, c};
  return VectorLayer::FromFeatures("test", std::move(fs));
}

TEST(VectorLayerTest, SelectByClass) {
  auto layer = MakeTestLayer();
  EXPECT_EQ(layer->SelectByClass(100), (std::vector<uint64_t>{0, 2}));
  EXPECT_EQ(layer->SelectByClass(200), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(layer->SelectByClass(999).empty());
}

TEST(VectorLayerTest, QueryEnvelopesAndIntersecting) {
  auto layer = MakeTestLayer();
  auto env_hits = layer->QueryEnvelopes(Box(5, 5, 25, 25));
  EXPECT_EQ(env_hits, (std::vector<uint64_t>{0, 1, 2}));
  auto exact = layer->QueryIntersecting(Geometry(Box(5, 5, 8, 8)));
  EXPECT_EQ(exact, (std::vector<uint64_t>{0}));
  auto line_hit = layer->QueryIntersecting(Geometry(Box(5, 14, 6, 16)));
  EXPECT_EQ(line_hit, (std::vector<uint64_t>{2}));
}

TEST(VectorLayerTest, QueryWithinDistance) {
  auto layer = MakeTestLayer();
  // 3 units above polygon a: within 5, not within 2.
  auto near = layer->QueryWithinDistance(Geometry(Point{5, 13}), 5);
  EXPECT_TRUE(std::find(near.begin(), near.end(), 0u) != near.end());
  auto far = layer->QueryWithinDistance(Geometry(Point{5, 13}), 2);
  EXPECT_TRUE(std::find(far.begin(), far.end(), 0u) == far.end());
  // The line at y=15 is 2 away.
  EXPECT_TRUE(std::find(near.begin(), near.end(), 2u) != near.end());
}

TEST(VectorLayerTest, EnvelopeUnion) {
  auto layer = MakeTestLayer();
  Box env = layer->Envelope();
  EXPECT_EQ(env.min_x, 0);
  EXPECT_EQ(env.max_x, 30);
  EXPECT_EQ(env.max_y, 30);
}

TEST(VectorLayerTest, AddInvalidatesIndex) {
  auto layer = MakeTestLayer();
  EXPECT_TRUE(layer->QueryEnvelopes(Box(100, 100, 110, 110)).empty());
  VectorFeature d;
  d.id = 4;
  d.geometry = Geometry(Point{105, 105});
  layer->Add(d);
  EXPECT_EQ(layer->QueryEnvelopes(Box(100, 100, 110, 110)).size(), 1u);
}

// ---------------- Catalog ----------------

TEST(CatalogTest, RegistrationAndLookup) {
  Catalog cat;
  auto table = std::make_shared<FlatTable>(
      "pc", Schema({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}}));
  ASSERT_TRUE(cat.AddPointCloud("ahn2", table).ok());
  ASSERT_TRUE(cat.AddLayer(MakeTestLayer()).ok());
  EXPECT_TRUE(cat.HasPointCloud("ahn2"));
  EXPECT_FALSE(cat.HasPointCloud("test"));
  EXPECT_TRUE(cat.HasLayer("test"));
  EXPECT_TRUE(cat.GetEngine("ahn2").ok());
  EXPECT_TRUE(cat.GetTable("ahn2").ok());
  EXPECT_TRUE(cat.GetLayer("test").ok());
  EXPECT_EQ(cat.GetEngine("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cat.GetLayer("ahn2").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cat.PointCloudNames(), (std::vector<std::string>{"ahn2"}));
  EXPECT_EQ(cat.LayerNames(), (std::vector<std::string>{"test"}));
}

TEST(CatalogTest, DuplicateNamesRejected) {
  Catalog cat;
  auto table = std::make_shared<FlatTable>(
      "pc", Schema({{"x", DataType::kFloat64}}));
  ASSERT_TRUE(cat.AddPointCloud("d", table).ok());
  EXPECT_EQ(cat.AddPointCloud("d", table).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.AddLayer(VectorLayer::FromFeatures("d", {})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.AddPointCloud("n", nullptr).code(),
            StatusCode::kInvalidArgument);
}

// ---------------- spatial joins ----------------

class SpatialJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AhnGeneratorOptions opts;
    opts.extent = Box(85000, 444000, 85300, 444300);
    AhnGenerator gen(opts);
    auto table = gen.GenerateTable(30000);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    engine_ = std::make_unique<SpatialQueryEngine>(table_);

    std::vector<VectorFeature> fs;
    VectorFeature road;
    road.id = 1;
    LineString l;
    l.points = {{85000, 444150}, {85300, 444160}};
    road.geometry = Geometry(l);
    road.feature_class =
        static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads);
    road.name = "transit";
    VectorFeature park;
    park.id = 2;
    park.geometry =
        Geometry(Polygon::FromBox(Box(85050, 444050, 85120, 444120)));
    park.feature_class = static_cast<uint32_t>(UrbanAtlasClass::kGreenUrbanAreas);
    park.name = "park";
    layer_ = VectorLayer::FromFeatures("ua", {road, park});
  }

  std::shared_ptr<FlatTable> table_;
  std::unique_ptr<SpatialQueryEngine> engine_;
  std::shared_ptr<VectorLayer> layer_;
};

TEST_F(SpatialJoinTest, PointsNearTransitRoadMatchesManualQuery) {
  auto near = PointsNearLayerClass(
      engine_.get(), layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0);
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near->features_matched(), 1u);
  auto direct =
      engine_->SelectWithinDistance(layer_->feature(0).geometry, 20.0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(near->row_ids, direct->row_ids);
  EXPECT_FALSE(near->row_ids.empty());
  EXPECT_FALSE(near->profile.empty());
}

TEST_F(SpatialJoinTest, ClassZeroMeansAnyFeature) {
  auto any = PointsNearLayerClass(engine_.get(), layer_.get(), 0, 10.0);
  ASSERT_TRUE(any.ok());
  auto transit = PointsNearLayerClass(
      engine_.get(), layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 10.0);
  ASSERT_TRUE(transit.ok());
  EXPECT_GE(any->row_ids.size(), transit->row_ids.size());
  EXPECT_EQ(any->features_matched(), 2u);
}

TEST_F(SpatialJoinTest, ResultsAreSortedAndUnique) {
  auto near = PointsNearLayerClass(engine_.get(), layer_.get(), 0, 30.0);
  ASSERT_TRUE(near.ok());
  EXPECT_TRUE(std::is_sorted(near->row_ids.begin(), near->row_ids.end()));
  EXPECT_EQ(std::adjacent_find(near->row_ids.begin(), near->row_ids.end()),
            near->row_ids.end());
}

TEST_F(SpatialJoinTest, AverageElevationNearTransitRoad) {
  // The demo's flagship query: "compute the average elevation of the LIDAR
  // points that are near a fast transit road".
  auto avg = AggregateNearLayerClass(
      engine_.get(), layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0, "z",
      AggKind::kAvg);
  ASSERT_TRUE(avg.ok());
  auto near = PointsNearLayerClass(
      engine_.get(), layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0);
  ASSERT_TRUE(near.ok());
  ColumnPtr z = table_->column("z");
  double sum = 0;
  for (uint64_t r : near->row_ids) sum += z->GetDouble(r);
  EXPECT_NEAR(*avg, sum / near->row_ids.size(), 1e-9);
  auto count = AggregateNearLayerClass(
      engine_.get(), layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0, "z",
      AggKind::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, near->row_ids.size());
}

TEST_F(SpatialJoinTest, NoMatchingClassYieldsEmpty) {
  auto near = PointsNearLayerClass(engine_.get(), layer_.get(), 99999, 50.0);
  ASSERT_TRUE(near.ok());
  EXPECT_TRUE(near->row_ids.empty());
  EXPECT_EQ(near->features_matched(), 0u);
}

TEST_F(SpatialJoinTest, LayerIntersectingLayer) {
  // Roads layer intersecting the UA layer's park polygons.
  std::vector<VectorFeature> roads;
  VectorFeature through_park;
  through_park.id = 10;
  LineString l1;
  l1.points = {{85000, 444080}, {85300, 444085}};
  through_park.geometry = Geometry(l1);
  through_park.feature_class = 1;
  VectorFeature elsewhere;
  elsewhere.id = 11;
  LineString l2;
  l2.points = {{85000, 444290}, {85300, 444295}};
  elsewhere.geometry = Geometry(l2);
  elsewhere.feature_class = 1;
  auto road_layer =
      VectorLayer::FromFeatures("roads", {through_park, elsewhere});
  auto hits = LayerIntersectingLayer(
      road_layer.get(), layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kGreenUrbanAreas));
  EXPECT_EQ(hits, (std::vector<uint64_t>{0}));
}

// ---------------- NEAR differential ----------------
//
// NEAR against a brute-force oracle: every row tested against every
// feature with the scalar GeometryDWithin (GeometryContainsPoint at
// d = 0), then against the box and ranges. Flat, live (pinned snapshot)
// and paged tables answer at 1 and 3 threads, with the result cache off
// and on; row ids and aggregates must match the oracle bit for bit.

constexpr uint32_t kTransit =
    static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads);
const Box kNearExtent(1000, 2000, 1400, 2300);
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The survey columns, split so the live table can publish the second
/// half as an appended epoch. `quality` holds NaNs.
struct NearColumns {
  std::vector<double> x, y, z, quality;
  std::vector<uint8_t> cls;
  std::vector<uint16_t> intensity;

  std::shared_ptr<FlatTable> Table(size_t begin, size_t end) const {
    auto slice = [&](const auto& v) {
      using T = typename std::decay_t<decltype(v)>::value_type;
      return std::vector<T>(v.begin() + begin, v.begin() + end);
    };
    auto t = std::make_shared<FlatTable>("pc");
    EXPECT_TRUE(t->AddColumn(Column::FromVector("x", slice(x))).ok());
    EXPECT_TRUE(t->AddColumn(Column::FromVector("y", slice(y))).ok());
    EXPECT_TRUE(t->AddColumn(Column::FromVector("z", slice(z))).ok());
    EXPECT_TRUE(
        t->AddColumn(Column::FromVector("quality", slice(quality))).ok());
    EXPECT_TRUE(
        t->AddColumn(Column::FromVector("classification", slice(cls))).ok());
    EXPECT_TRUE(
        t->AddColumn(Column::FromVector("intensity", slice(intensity))).ok());
    return t;
  }
};

NearColumns MakeNearColumns(size_t n) {
  Rng rng(6121);
  NearColumns c;
  for (size_t i = 0; i < n; ++i) {
    c.x.push_back(rng.UniformDouble(kNearExtent.min_x, kNearExtent.max_x));
    c.y.push_back(rng.UniformDouble(kNearExtent.min_y, kNearExtent.max_y));
    c.z.push_back(rng.UniformDouble(-3, 40));
    c.quality.push_back(rng.NextBool(0.2) ? std::nan("")
                                          : rng.UniformDouble(0, 1));
    c.cls.push_back(static_cast<uint8_t>(rng.Uniform(8)));
    c.intensity.push_back(static_cast<uint16_t>(rng.Uniform(256)));
  }
  return c;
}

/// Overlapping transit corridors, a transit polygon and a transit box
/// over them, plus features of other classes: a park polygon and a road
/// line.
std::shared_ptr<VectorLayer> MakeNearLayer() {
  std::vector<VectorFeature> fs;
  auto add = [&](Geometry g, uint32_t cls, const char* name) {
    VectorFeature f;
    f.id = fs.size() + 1;
    f.geometry = std::move(g);
    f.feature_class = cls;
    f.name = name;
    fs.push_back(std::move(f));
  };
  LineString a, b, road;
  a.points = {{1000, 2100}, {1200, 2140}, {1400, 2120}};
  b.points = {{1150, 2000}, {1170, 2150}, {1230, 2300}};
  road.points = {{1000, 2260}, {1400, 2250}};
  add(Geometry(BufferLine(a, 9.0)), kTransit, "corridor-a");
  add(Geometry(BufferLine(b, 7.0)), kTransit, "corridor-b");
  add(Geometry(Polygon::FromBox(Box(1140, 2110, 1210, 2170))), kTransit,
      "junction");
  add(Geometry(Box(1190, 2130, 1260, 2190)), kTransit, "depot");
  add(Geometry(Polygon::FromBox(Box(1300, 2180, 1380, 2240))),
      static_cast<uint32_t>(UrbanAtlasClass::kGreenUrbanAreas), "park");
  add(Geometry(road), static_cast<uint32_t>(UrbanAtlasClass::kOtherRoads),
      "road");
  return VectorLayer::FromFeatures("ua", std::move(fs));
}

struct NearCase {
  uint32_t cls;
  double d;
  std::string where;                  ///< SQL conjuncts after the NEAR
  std::vector<AttributeRange> ranges;  ///< what `where` means
};

std::vector<NearCase> NearCases() {
  return {
      {kTransit, 0, "", {}},
      {kTransit, 7.5, "", {}},
      {0, 0, "", {}},
      {0, 12, "", {}},
      {kTransit, 5,
       "ST_Within(pt, 'BOX(1100 2050, 1250 2200)')",
       {{"x", 1100, 1250}, {"y", 2050, 2200}}},
      {kTransit, 5, "x >= 1180 AND y <= 2150",
       {{"x", 1180, kInf}, {"y", -kInf, 2150}}},
      {kTransit, 3,
       "classification BETWEEN 2 AND 5 AND intensity >= 100",
       {{"classification", 2, 5}, {"intensity", 100, kInf}}},
      {0, 6, "quality <= 0.5 AND x BETWEEN 1000 AND 1300",
       {{"quality", -kInf, 0.5}, {"x", 1000, 1300}}},
  };
}

std::string NearSql(const NearCase& c, const char* items) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "SELECT %s FROM pc WHERE NEAR(ua, %u, %g)", items, c.cls, c.d);
  return c.where.empty() ? head : std::string(head) + " AND " + c.where;
}

std::vector<uint64_t> NearOracle(const FlatTable& t, const VectorLayer& layer,
                                 const NearCase& c) {
  std::vector<const Geometry*> features;
  for (size_t i = 0; i < layer.size(); ++i) {
    if (c.cls == 0 || layer.feature(i).feature_class == c.cls) {
      features.push_back(&layer.feature(i).geometry);
    }
  }
  ColumnPtr x = t.column("x"), y = t.column("y");
  std::vector<uint64_t> rows;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    const Point p{x->GetDouble(r), y->GetDouble(r)};
    bool near = false;
    for (const Geometry* g : features) {
      near = c.d > 0 ? GeometryDWithin(*g, p, c.d)
                     : GeometryContainsPoint(*g, p);
      if (near) break;
    }
    for (const AttributeRange& a : c.ranges) {
      const double v = t.column(a.column)->GetDouble(r);
      near = near && v >= a.lo && v <= a.hi;  // NaN never qualifies
    }
    if (near) rows.push_back(r);
  }
  return rows;
}

bool SameBits(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

size_t CountSpans(const QueryProfile& profile, const std::string& name) {
  size_t n = 0;
  for (const OperatorProfile& op : profile.operators()) n += op.name == name;
  return n;
}

TEST(NearDifferentialTest, MatchesBruteForceOnEveryLayout) {
  // Past the 2^17-row thresholds of the morsel-parallel imprint scan and
  // grid refinement, so 3 threads exercise both.
  constexpr size_t kRows = 140000;
  const NearColumns cols = MakeNearColumns(kRows);
  const std::shared_ptr<FlatTable> full = cols.Table(0, kRows);
  const std::shared_ptr<VectorLayer> layer = MakeNearLayer();
  const std::vector<NearCase> cases = NearCases();
  std::vector<std::vector<uint64_t>> want;
  for (const NearCase& c : cases) {
    want.push_back(NearOracle(*full, *layer, c));
    ASSERT_FALSE(want.back().empty()) << NearSql(c, "*");
  }
  // The features overlap: some rows are near two transit features, so the
  // later feature must skip rows an earlier one already selected.
  size_t shared = 0;
  for (uint64_t r : want[1]) {
    const Point p{full->column("x")->GetDouble(r),
                  full->column("y")->GetDouble(r)};
    int hits = 0;
    for (uint64_t fi : layer->SelectByClass(kTransit)) {
      hits += GeometryDWithin(layer->feature(fi).geometry, p, 7.5);
    }
    shared += hits > 1;
  }
  ASSERT_GT(shared, 0u);

  TempDir dir("near-diff");
  ASSERT_TRUE(WriteTableDir(*full, dir.File("paged")).ok());

  // Sharded layouts renumber rows in Hilbert order; their oracle runs over
  // the sorted table (the K = 1 layout's), the same row order at every K.
  std::map<std::string, std::shared_ptr<ShardedTable>> sharded;
  for (uint32_t k : {1u, 4u}) {
    ShardingOptions so;
    so.num_shards = k;
    auto created = ShardedTable::Create(*full, so);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    sharded["shard" + std::to_string(k)] = *created;
  }
  const std::shared_ptr<FlatTable> sorted = sharded["shard1"]->shard(0).table;
  std::vector<std::vector<uint64_t>> want_sorted;
  for (const NearCase& c : cases) {
    want_sorted.push_back(NearOracle(*sorted, *layer, c));
  }

  // Span tree (name, parent, cardinalities, attrs, refine stats) and
  // features_matched of every cache-off join at 1 thread, which 3 threads
  // must reproduce.
  std::map<std::string, std::vector<std::string>> serial_shape;
  auto shape = [](const NearLayerResult& r) {
    std::vector<std::string> out = {std::to_string(r.features_matched())};
    for (const OperatorProfile& op : r.profile.operators()) {
      std::string s = op.name + "@" + std::to_string(op.parent) + " " +
                      std::to_string(op.rows_in) + "->" +
                      std::to_string(op.rows_out);
      for (const auto& [k, v] : op.attrs) s += " " + k + "=" + v;
      if (op.name.rfind("refine.", 0) == 0) s += " " + op.detail;
      out.push_back(s);
    }
    return out;
  };
  // features_matched of the flat layout, which every other layout must
  // reproduce: a feature counts once, however many shards it matched in.
  std::vector<uint64_t> flat_matched(cases.size());

  for (uint32_t threads : {1u, 3u}) {
    for (bool cache_on : {false, true}) {
      EngineOptions opts;
      opts.num_threads = threads;
      if (cache_on) {
        opts.cache.budget_bytes = 64ull << 20;
        opts.cache.instance = std::make_shared<cache::QueryResultCache>();
      }
      for (const std::string layout :
           {"flat", "live", "paged", "shard1", "shard4"}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads
                                        << " cache=" << cache_on
                                        << " layout=" << layout);
        Catalog cat;
        ASSERT_TRUE(cat.AddLayer(layer).ok());
        if (layout == "flat") {
          ASSERT_TRUE(cat.AddPointCloud("pc", full, opts).ok());
        } else if (layout == "paged") {
          auto paged = ReadTableDirPaged(dir.File("paged"));
          ASSERT_TRUE(paged.ok()) << paged.status().ToString();
          ASSERT_TRUE(cat.AddPointCloud(
                             "pc",
                             std::make_shared<FlatTable>(std::move(*paged)),
                             opts)
                          .ok());
        } else if (layout == "live") {
          LiveTableOptions lopts;
          lopts.engine = opts;
          auto created = LiveTable::Create(cols.Table(0, kRows / 2), lopts);
          ASSERT_TRUE(created.ok()) << created.status().ToString();
          TableAppender app(*created);
          ASSERT_TRUE(app.StageBatch(*cols.Table(kRows / 2, kRows)).ok());
          ASSERT_TRUE(app.Commit().ok());
          ASSERT_TRUE(cat.AddLivePointCloud("pc", *created).ok());
        } else {
          ASSERT_TRUE(
              cat.AddShardedPointCloud("pc", sharded[layout], opts).ok());
        }
        const bool resorted = layout.rfind("shard", 0) == 0;
        const FlatTable& oracle_table = resorted ? *sorted : *full;
        sql::SessionOptions sopts;
        sopts.record_trace = false;
        sopts.record_flight = false;
        sql::Session session(&cat, sopts);

        for (size_t i = 0; i < cases.size(); ++i) {
          const NearCase& c = cases[i];
          const std::vector<uint64_t>& expect =
              resorted ? want_sorted[i] : want[i];
          SCOPED_TRACE(NearSql(c, "*"));
          // Row ids through the join API, on the statement's pinned view.
          auto view = cat.View("pc");
          ASSERT_TRUE(view.ok());
          // With the cache on, results past the doorkeeper size are
          // admitted on their second sighting, so the third run must hit.
          for (int rep = 0; rep < (cache_on ? 3 : 1); ++rep) {
            auto got = PointsNearLayerClass(**view, layer.get(), c.cls, c.d,
                                            c.ranges);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_EQ(got->row_ids, expect);
            if (layout == "flat") {
              flat_matched[i] = got->features_matched();
            } else {
              EXPECT_EQ(got->features_matched(), flat_matched[i]);
            }
            if (!cache_on) {
              const std::string key = layout + "/" + std::to_string(i);
              if (threads == 1) {
                serial_shape[key] = shape(*got);
              } else {
                EXPECT_EQ(shape(*got), serial_shape[key]);
              }
            }
            if (rep == 2) {
              // A repeated NEAR replays one tier-(a) entry per shard it
              // scans: one cache.hit span each, no per-feature work.
              const size_t scans = CountSpans(got->profile, "shard.scan");
              EXPECT_EQ(CountSpans(got->profile, "cache.hit"),
                        std::max<size_t>(scans, 1));
              EXPECT_EQ(CountSpans(got->profile, "near"), 0u);
            }
          }
          // Aggregates through SQL, against serial AggregateRows over the
          // oracle rows.
          auto rs = session.Execute(
              NearSql(c, "COUNT(*), AVG(z), MIN(x), MAX(intensity)"));
          ASSERT_TRUE(rs.ok()) << rs.status().ToString();
          ASSERT_EQ(rs->rows.size(), 1u);
          EXPECT_EQ(rs->rows[0][0].number, static_cast<double>(expect.size()));
          const std::pair<const char*, AggKind> aggs[] = {
              {"z", AggKind::kAvg},
              {"x", AggKind::kMin},
              {"intensity", AggKind::kMax}};
          for (size_t k = 0; k < 3; ++k) {
            auto v = AggregateRows(*oracle_table.column(aggs[k].first), expect,
                                   aggs[k].second);
            ASSERT_TRUE(v.ok());
            EXPECT_TRUE(SameBits(rs->rows[0][k + 1].number, *v))
                << aggs[k].first << ": " << rs->rows[0][k + 1].number
                << " vs " << *v;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace geocol
