// Cold start: a table written the way `geocol load` writes it (column
// files, then x/y imprint sidecars) and opened the way every geocol
// command opens it (Catalog::AddPointCloudDir). Opens with and without
// the sidecars, with a corrupt sidecar, after an ingest and on the paged
// tier must answer the xy_oracle statements bit for bit like a full scan,
// and NEAR joins like a sidecar-free open. The imprint counters pin what
// each open builds, adopts, quarantines or finds stale.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "columns/column_file.h"
#include "core/imprints_io.h"
#include "core/live_table.h"
#include "core/table_appender.h"
#include "gis/catalog.h"
#include "pointcloud/vector_gen.h"
#include "sql/session.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/tempdir.h"
#include "xy_oracle.h"

namespace geocol {
namespace {

namespace fs = std::filesystem;

constexpr size_t kRows = 30000;
constexpr uint32_t kTransit =
    static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads);

/// The imprint counters of the process-wide registry.
struct ImprintCounts {
  uint64_t builds = 0, loads = 0, quarantines = 0, stale = 0;

  static ImprintCounts Now() {
    auto& reg = telemetry::MetricsRegistry::Global();
    return {reg.GetCounter("geocol_imprint_builds_total").Value(),
            reg.GetCounter("geocol_imprint_sidecar_loads_total").Value(),
            reg.GetCounter("geocol_imprint_sidecar_quarantines_total").Value(),
            reg.GetCounter("geocol_imprint_sidecar_stale_total").Value()};
  }
  ImprintCounts operator-(const ImprintCounts& o) const {
    return {builds - o.builds, loads - o.loads, quarantines - o.quarantines,
            stale - o.stale};
  }
};

/// Two transit corridors crossing the xy_oracle extent, and a park.
std::shared_ptr<VectorLayer> TransitLayer() {
  std::vector<VectorFeature> fs;
  auto add = [&](Geometry g, uint32_t cls) {
    VectorFeature f;
    f.id = fs.size() + 1;
    f.geometry = std::move(g);
    f.feature_class = cls;
    fs.push_back(std::move(f));
  };
  LineString a, b;
  a.points = {{5000, 5200}, {5500, 5450}, {6000, 5700}};
  b.points = {{5400, 5000}, {5450, 5500}, {5600, 6000}};
  add(Geometry(BufferLine(a, 15.0)), kTransit);
  add(Geometry(BufferLine(b, 10.0)), kTransit);
  add(Geometry(Polygon::FromBox(Box(5700, 5100, 5850, 5300))),
      static_cast<uint32_t>(UrbanAtlasClass::kGreenUrbanAreas));
  return VectorLayer::FromFeatures("ua", std::move(fs));
}

/// The statements one open runs. The first `xy_only` touch only the x and
/// y imprints; the rest add thematic ranges. `oracle[i]` is the full-scan
/// answer of statement i (null for NEAR joins).
struct Workload {
  std::vector<std::string> sql;
  std::vector<const std::vector<std::vector<sql::Value>>*> oracle;
  size_t xy_only = 0;
};

Workload MakeWorkload(const std::vector<xytest::XyQuery>& queries,
                      const std::vector<xytest::XyExpected>& expected) {
  Workload w;
  auto add_clauses = [&](bool thematic) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].thematic.empty() == thematic) continue;
      w.sql.push_back(xytest::AggregateSql("pc", queries[i]));
      w.oracle.push_back(&expected[i].aggregate);
      w.sql.push_back(xytest::ProjectSql("pc", queries[i]));
      w.oracle.push_back(&expected[i].projection);
    }
  };
  auto add_near = [&](const std::string& tail) {
    for (const char* near : {"NEAR(ua, 12210, 0)", "NEAR(ua, 12210, 4)",
                             "NEAR(ua, 12210, 25)", "NEAR(ua, 0, 10)"}) {
      w.sql.push_back("SELECT COUNT(*), SUM(z), MAX(intensity) FROM pc WHERE " +
                      std::string(near) + tail);
      w.oracle.push_back(nullptr);
    }
  };
  add_clauses(/*thematic=*/false);
  add_near("");
  w.xy_only = w.sql.size();
  add_clauses(/*thematic=*/true);
  add_near(" AND classification BETWEEN 2 AND 5");
  add_near(" AND intensity >= 100");
  return w;
}

/// What one open answered, and the imprint counter deltas it caused.
struct OpenRun {
  std::vector<uint32_t> digests;
  ImprintCounts xy_phase;  ///< over the x/y-only statements
  ImprintCounts all;       ///< over every statement
};

OpenRun RunOpen(const std::string& dir, bool paged, const Workload& w) {
  OpenRun run;
  Catalog catalog;
  Status opened = catalog.AddPointCloudDir(dir, paged);
  EXPECT_TRUE(opened.ok()) << opened.ToString();
  EXPECT_TRUE(catalog.AddLayer(TransitLayer()).ok());
  sql::Session session(&catalog);
  const ImprintCounts start = ImprintCounts::Now();
  for (size_t i = 0; i < w.sql.size(); ++i) {
    if (i == w.xy_only) run.xy_phase = ImprintCounts::Now() - start;
    SCOPED_TRACE(w.sql[i]);
    auto rs = session.Execute(w.sql[i]);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    if (!rs.ok()) {
      run.digests.push_back(0);
      continue;
    }
    if (w.oracle[i] != nullptr) {
      EXPECT_TRUE(xytest::SameRows(rs->rows, *w.oracle[i]));
    }
    run.digests.push_back(sql::ResultSetDigest(*rs));
  }
  run.all = ImprintCounts::Now() - start;
  return run;
}

/// True when `dir`'s sidecar for `column` would be adopted by an open.
bool SidecarIsFresh(const std::string& dir, const std::string& column) {
  auto table = ReadTableDir(dir);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  if (!table.ok()) return false;
  ImprintsFileMeta meta;
  auto index = ReadImprintsFile(ImprintsSidecarPath(dir, column), &meta);
  if (!index.ok()) return false;
  ColumnPtr col = table->column(column);
  return SidecarFresh(meta, *index, ColumnFingerprint(*col), col->size());
}

void RemoveSidecars(const std::string& dir) {
  std::vector<std::string> files;
  ASSERT_TRUE(ListFiles(dir, ".gim", &files).ok());
  for (const std::string& f : files) ASSERT_TRUE(RemoveFile(f).ok());
}

class ColdStartTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Columns built the way the loader builds them, one append per input
    // file, so their epochs are far from the epoch 1 of a column read back
    // from disk: the sidecars must be adopted regardless.
    auto source = xytest::MakeXyTable(kRows, 41);
    table_ = std::make_shared<FlatTable>(source->name());
    for (const ColumnPtr& c : source->columns()) {
      auto col = std::make_shared<Column>(c->name(), c->type());
      for (size_t row = 0; row < c->size(); row += 1000) {
        col->AppendRaw(c->raw_data() + row * c->width(),
                       std::min<size_t>(1000, c->size() - row));
      }
      ASSERT_TRUE(table_->AddColumn(col).ok());
    }
    queries_ = xytest::MakeXyQueries(907, 40, xytest::XyExtent());
    expected_ = xytest::ExpectAll(*table_, queries_);
  }

  /// Persists the table as `geocol load` does: columns, then x/y sidecars.
  std::string Load(const std::string& name) {
    const std::string dir = tmp_.File(name);
    EXPECT_TRUE(WriteTableDir(*table_, dir).ok());
    EXPECT_TRUE(WriteImprintsSidecars(*table_, {"x", "y"}, dir).ok());
    return dir;
  }

  /// A copy of `dir` without any sidecar: what an open that has to build
  /// everything answers.
  std::string BareCopy(const std::string& dir, const std::string& name) {
    const std::string copy = tmp_.File(name);
    fs::copy(dir, copy, fs::copy_options::recursive);
    RemoveSidecars(copy);
    return copy;
  }

  Workload workload() const { return MakeWorkload(queries_, expected_); }

  TempDir tmp_{"cold-start"};
  static std::shared_ptr<FlatTable> table_;
  static std::vector<xytest::XyQuery> queries_;
  static std::vector<xytest::XyExpected> expected_;
};

std::shared_ptr<FlatTable> ColdStartTest::table_;
std::vector<xytest::XyQuery> ColdStartTest::queries_;
std::vector<xytest::XyExpected> ColdStartTest::expected_;

TEST_F(ColdStartTest, LoadedSidecarsAreAdoptedWithTheSameAnswers) {
  const Workload w = workload();
  const std::string loaded = Load("loaded");
  EXPECT_TRUE(SidecarIsFresh(loaded, "x"));
  EXPECT_TRUE(SidecarIsFresh(loaded, "y"));
  const std::string bare = BareCopy(loaded, "bare");

  const OpenRun without = RunOpen(bare, /*paged=*/false, w);
  EXPECT_EQ(without.xy_phase.builds, 2u);
  EXPECT_EQ(without.xy_phase.loads, 0u);
  // An open with no sidecars writes them, so the next open adopts.
  EXPECT_TRUE(SidecarIsFresh(bare, "x"));
  EXPECT_TRUE(SidecarIsFresh(bare, "y"));

  const OpenRun with = RunOpen(loaded, /*paged=*/false, w);
  EXPECT_EQ(with.xy_phase.builds, 0u);
  EXPECT_EQ(with.xy_phase.loads, 2u);
  EXPECT_EQ(with.all.quarantines, 0u);
  EXPECT_EQ(with.all.stale, 0u);
  EXPECT_EQ(with.digests, without.digests);

  // The first open also left sidecars for the thematic columns it
  // filtered; a reopen builds nothing at all.
  const OpenRun reopen = RunOpen(loaded, /*paged=*/false, w);
  EXPECT_EQ(reopen.all.builds, 0u);
  EXPECT_EQ(reopen.digests, without.digests);
}

TEST_F(ColdStartTest, CorruptSidecarIsQuarantinedAndRebuilt) {
  const Workload w = workload();
  const std::string loaded = Load("loaded");
  const OpenRun reference =
      RunOpen(BareCopy(loaded, "bare"), /*paged=*/false, w);

  const std::string x_gim = ImprintsSidecarPath(loaded, "x");
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(x_gim, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x5A;
  ASSERT_TRUE(WriteFileBytes(x_gim, bytes.data(), bytes.size()).ok());

  const OpenRun run = RunOpen(loaded, /*paged=*/false, w);
  EXPECT_EQ(run.xy_phase.quarantines, 1u);
  EXPECT_EQ(run.xy_phase.builds, 1u);
  EXPECT_EQ(run.xy_phase.loads, 1u);
  EXPECT_EQ(run.digests, reference.digests);
  EXPECT_TRUE(PathExists(x_gim + ".quarantined"));
  EXPECT_TRUE(SidecarIsFresh(loaded, "x"));
}

TEST_F(ColdStartTest, IngestLeavesStaleSidecarsThatAreRebuilt) {
  const std::string loaded = Load("loaded");
  {
    // What `geocol ingest` does: stage a batch and commit it as the next
    // generation of the table directory.
    LiveTableOptions opts;
    opts.dir = loaded;
    auto live = LiveTable::Open(loaded, opts);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    TableAppender appender(*live);
    ASSERT_TRUE(appender.StageBatch(*xytest::MakeXyTable(777, 43)).ok());
    ASSERT_TRUE(appender.Commit().ok());
  }
  EXPECT_FALSE(SidecarIsFresh(loaded, "x"));
  auto ingested = ReadTableDir(loaded);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_EQ(ingested->num_rows(), kRows + 777);
  const auto expected = xytest::ExpectAll(*ingested, queries_);
  const Workload w = MakeWorkload(queries_, expected);
  const OpenRun reference =
      RunOpen(BareCopy(loaded, "bare"), /*paged=*/false, w);

  const OpenRun run = RunOpen(loaded, /*paged=*/false, w);
  EXPECT_EQ(run.xy_phase.stale, 2u);
  EXPECT_EQ(run.xy_phase.builds, 2u);
  EXPECT_EQ(run.xy_phase.loads, 0u);
  EXPECT_EQ(run.digests, reference.digests);
  EXPECT_TRUE(SidecarIsFresh(loaded, "x"));
  EXPECT_TRUE(SidecarIsFresh(loaded, "y"));

  const OpenRun reopen = RunOpen(loaded, /*paged=*/false, w);
  EXPECT_EQ(reopen.xy_phase.builds, 0u);
  EXPECT_EQ(reopen.xy_phase.loads, 2u);
  EXPECT_EQ(reopen.digests, reference.digests);
}

TEST_F(ColdStartTest, PagedOpenAdoptsTheSameSidecars) {
  const Workload w = workload();
  const std::string loaded = Load("loaded");
  const OpenRun resident =
      RunOpen(BareCopy(loaded, "bare"), /*paged=*/false, w);

  const OpenRun paged = RunOpen(loaded, /*paged=*/true, w);
  EXPECT_EQ(paged.xy_phase.builds, 0u);
  EXPECT_EQ(paged.xy_phase.loads, 2u);
  EXPECT_EQ(paged.all.stale, 0u);
  EXPECT_EQ(paged.digests, resident.digests);
}

}  // namespace
}  // namespace geocol
