// End-to-end smoke tests of the geocol CLI: each subcommand is exercised
// on a temporary workspace via std::system. The binary path is injected at
// compile time (GEOCOL_TOOL_PATH).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/binary_io.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

#ifndef GEOCOL_TOOL_PATH
#define GEOCOL_TOOL_PATH "geocol"
#endif

int RunTool(const std::string& args, std::string* out_path = nullptr,
        TempDir* tmp = nullptr) {
  static int counter = 0;
  std::string capture =
      tmp != nullptr ? tmp->File("out" + std::to_string(counter++) + ".txt")
                     : "/dev/null";
  if (out_path != nullptr) *out_path = capture;
  std::string cmd = std::string(GEOCOL_TOOL_PATH) + " " + args + " > " +
                    capture + " 2>&1";
  int rc = std::system(cmd.c_str());
  return rc;
}

std::string Slurp(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes).ok()) return "";
  return std::string(bytes.begin(), bytes.end());
}

class ToolTest : public ::testing::Test {
 protected:
  // One workspace for the whole fixture run, built once.
  static void SetUpTestSuite() {
    tmp_ = new TempDir("tool");
    ASSERT_EQ(RunTool("generate " + tmp_->File("tiles") + " --points 40000 " +
                      "--layers " + tmp_->File("layers"),
                  nullptr, tmp_),
              0);
    ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + tmp_->File("table"),
                  nullptr, tmp_),
              0);
  }
  static void TearDownTestSuite() {
    delete tmp_;
    tmp_ = nullptr;
  }
  static TempDir* tmp_;
};

TempDir* ToolTest::tmp_ = nullptr;

TEST_F(ToolTest, NoArgsShowsUsage) {
  EXPECT_NE(RunTool(""), 0);
  EXPECT_NE(RunTool("frobnicate"), 0);
}

TEST_F(ToolTest, GenerateProducedTilesAndLayers) {
  std::vector<std::string> tiles, layers;
  ASSERT_TRUE(ListFiles(tmp_->File("tiles"), ".las", &tiles).ok());
  EXPECT_FALSE(tiles.empty());
  ASSERT_TRUE(ListFiles(tmp_->File("layers"), ".layer", &layers).ok());
  EXPECT_EQ(layers.size(), 2u);
}

TEST_F(ToolTest, InfoListsTiles) {
  std::string out;
  ASSERT_EQ(RunTool("info " + tmp_->File("tiles"), &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("TOTAL:"), std::string::npos);
  EXPECT_NE(text.find("pts"), std::string::npos);
}

TEST_F(ToolTest, LoadPersistedQueryableTable) {
  EXPECT_TRUE(PathExists(tmp_->File("table") + "/schema.gct"));
  std::string out;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("COUNT(*)"), std::string::npos);
  EXPECT_NE(text.find("(1 rows)"), std::string::npos);
}

// `geocol load` leaves fresh x/y imprint sidecars, so the first query of a
// new process adopts both instead of building them.
TEST_F(ToolTest, LoadWritesSidecarsTheFirstQueryAdopts) {
  const std::string table = tmp_->File("cold-table");
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + table, nullptr,
                    tmp_),
            0);
  std::string out;
  ASSERT_EQ(RunTool("verify " + table, &out, tmp_), 0);
  std::string text = Slurp(out);
  for (const char* sidecar : {"x.gim", "y.gim"}) {
    const size_t at = text.find(sidecar);
    ASSERT_NE(at, std::string::npos) << text;
    const std::string line = text.substr(at, text.find('\n', at) - at);
    EXPECT_NE(line.find("fresh"), std::string::npos) << line;
  }
  ASSERT_EQ(RunTool("metrics " + table +
                        " \"SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 85020 "
                        "AND 85050 AND y BETWEEN 444020 AND 444050\" "
                        "--format json --no-flight",
                    &out, tmp_),
            0);
  text = Slurp(out);
  EXPECT_NE(text.find("\"geocol_imprint_builds_total\": 0"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"geocol_imprint_sidecar_loads_total\": 2"),
            std::string::npos)
      << text;
}

TEST_F(ToolTest, QueryWithLayersAndProfile) {
  std::string out;
  ASSERT_EQ(
      RunTool("query " + tmp_->File("table") +
              " \"SELECT COUNT(*) FROM ahn2 WHERE NEAR(urban_atlas, 12210, "
              "15)\" --layers " + tmp_->File("layers") + " --profile",
          &out, tmp_),
      0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("plan for:"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
}

TEST_F(ToolTest, QueryErrorsSurface) {
  std::string out;
  EXPECT_NE(RunTool("query " + tmp_->File("table") +
                    " \"SELECT bogus FROM ahn2\"",
                &out, tmp_),
            0);
  EXPECT_NE(Slurp(out).find("error:"), std::string::npos);
}

TEST_F(ToolTest, SortAndIndexThenQueryStillWorks) {
  ASSERT_EQ(RunTool("sort " + tmp_->File("tiles"), nullptr, tmp_), 0);
  ASSERT_EQ(RunTool("index " + tmp_->File("tiles"), nullptr, tmp_), 0);
  std::vector<std::string> lax;
  ASSERT_TRUE(ListFiles(tmp_->File("tiles"), ".lax", &lax).ok());
  EXPECT_FALSE(lax.empty());
}

TEST_F(ToolTest, CompressedLoadRoundTrip) {
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + tmp_->File("ctable") +
                    " --compressed",
                nullptr, tmp_),
            0);
  std::vector<std::string> gcz;
  ASSERT_TRUE(ListFiles(tmp_->File("ctable"), ".gcz", &gcz).ok());
  EXPECT_EQ(gcz.size(), 26u);
  std::string out;
  ASSERT_EQ(RunTool("query " + tmp_->File("ctable") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  EXPECT_NE(Slurp(out).find("(1 rows)"), std::string::npos);
}

TEST_F(ToolTest, RasterWritesPpm) {
  std::string ppm = tmp_->File("dsm.ppm");
  ASSERT_EQ(RunTool("raster " + tmp_->File("table") + " " + ppm + " --cols 64",
                nullptr, tmp_),
            0);
  auto size = FileSizeBytes(ppm);
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, 64u * 3);
  std::vector<uint8_t> head;
  BinaryReader r;
  ASSERT_TRUE(r.Open(ppm).ok());
  char magic[2];
  ASSERT_TRUE(r.ReadBytes(magic, 2).ok());
  EXPECT_EQ(magic[0], 'P');
  EXPECT_EQ(magic[1], '6');
}

TEST_F(ToolTest, VerifyPassesOnCleanTable) {
  std::string out;
  ASSERT_EQ(RunTool("verify " + tmp_->File("table"), &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("schema.gct"), std::string::npos);
  EXPECT_NE(text.find("OK"), std::string::npos);
  EXPECT_NE(text.find("all checks passed"), std::string::npos);
  EXPECT_EQ(text.find("CORRUPT"), std::string::npos) << text;
}

TEST_F(ToolTest, VerifyDetectsCorruptedColumn) {
  // A private copy of the table, so the damage cannot leak into other
  // tests' fixtures.
  std::string dir = tmp_->File("vtable");
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + dir, nullptr, tmp_),
            0);
  std::vector<std::string> gcl;
  ASSERT_TRUE(ListFiles(dir, ".gcl", &gcl).ok());
  ASSERT_FALSE(gcl.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(gcl[0], &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileBytes(gcl[0], bytes.data(), bytes.size()).ok());

  std::string out;
  EXPECT_NE(RunTool("verify " + dir, &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("CORRUPT"), std::string::npos) << text;
  EXPECT_NE(text.find("corrupt file(s)"), std::string::npos) << text;
  // The other columns still verify OK in the same report.
  EXPECT_NE(text.find("OK"), std::string::npos) << text;
}

TEST_F(ToolTest, ExplainAnalyzeRendersSpans) {
  std::string out;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"EXPLAIN ANALYZE SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("explain analyze"), std::string::npos);
  EXPECT_NE(text.find("spans ("), std::string::npos);
  EXPECT_NE(text.find("filter"), std::string::npos);
  EXPECT_NE(text.find("WALL (critical path)"), std::string::npos);
}

TEST_F(ToolTest, MetricsPrometheusAndJson) {
  std::string out;
  ASSERT_EQ(RunTool("metrics " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("# TYPE geocol_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("geocol_imprint_scans_total"), std::string::npos);
  EXPECT_NE(text.find("geocol_io_read_bytes_total"), std::string::npos);

  ASSERT_EQ(RunTool("metrics " + tmp_->File("table") + " --format json", &out,
                tmp_),
            0);
  text = Slurp(out);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"histograms\""), std::string::npos);

  EXPECT_NE(RunTool("metrics " + tmp_->File("table") + " --format xml", &out,
                tmp_),
            0);
}

TEST_F(ToolTest, TraceExportsChromeJson) {
  std::string trace = tmp_->File("trace.json");
  std::string out;
  ASSERT_EQ(RunTool("trace " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\" --out " + trace,
                &out, tmp_),
            0);
  std::string json = Slurp(trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  // JSONL variant to stdout: one object per line.
  ASSERT_EQ(RunTool("trace " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\" --jsonl",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_EQ(text.find('{'), 0u);
}

TEST_F(ToolTest, VerifyPrintsTelemetrySummaryWhenEnabled) {
  static int counter = 0;
  std::string capture = tmp_->File("env" + std::to_string(counter++) + ".txt");
  std::string cmd = "GEOCOL_METRICS=1 " + std::string(GEOCOL_TOOL_PATH) +
                    " verify " + tmp_->File("table") + " > " + capture +
                    " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::string text = Slurp(capture);
  EXPECT_NE(text.find("[telemetry]"), std::string::npos);
  EXPECT_NE(text.find("crc_verifies="), std::string::npos);
}

TEST_F(ToolTest, ShardBuildVerifyAndQuery) {
  std::string sharded = tmp_->File("sharded");
  std::string out;
  ASSERT_EQ(RunTool("shard " + tmp_->File("table") + " " + sharded +
                    " --shards 8",
                &out, tmp_),
            0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("8 Hilbert shards"), std::string::npos) << text;
  EXPECT_TRUE(PathExists(sharded + "/shards.gsm"));

  // verify walks the manifest and every shard directory.
  ASSERT_EQ(RunTool("verify " + sharded, &out, tmp_), 0);
  text = Slurp(out);
  EXPECT_NE(text.find("shards.gsm"), std::string::npos) << text;
  EXPECT_NE(text.find("generation 1, 8 shards"), std::string::npos) << text;
  EXPECT_NE(text.find("all checks passed"), std::string::npos) << text;
  EXPECT_EQ(text.find("CORRUPT"), std::string::npos) << text;

  // Identical COUNT through the sharded and the flat layout.
  std::string flat_out, shard_out;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"SELECT COUNT(*) FROM ahn2\"",
                &flat_out, tmp_),
            0);
  ASSERT_EQ(RunTool("query " + sharded + " \"SELECT COUNT(*) FROM ahn2\"",
                &shard_out, tmp_),
            0);
  EXPECT_EQ(Slurp(flat_out).substr(Slurp(flat_out).find('\n')),
            Slurp(shard_out).substr(Slurp(shard_out).find('\n')));

  // EXPLAIN ANALYZE on a viewport query surfaces the scatter-gather
  // footer with a non-zero prune count.
  ASSERT_EQ(RunTool("query " + sharded +
                    " \"EXPLAIN ANALYZE SELECT COUNT(*) FROM ahn2 WHERE "
                    "ST_Within(pt, 'BOX(85000 444000, 85010 444010)')\"",
                &out, tmp_),
            0);
  text = Slurp(out);
  EXPECT_NE(text.find("shard.route"), std::string::npos) << text;
  EXPECT_NE(text.find("shards: scanned "), std::string::npos) << text;
  EXPECT_EQ(text.find(" (0 pruned)"), std::string::npos) << text;
}

TEST_F(ToolTest, VerifyDetectsCorruptedShardColumn) {
  std::string dir = tmp_->File("vsharded");
  ASSERT_EQ(RunTool("shard " + tmp_->File("table") + " " + dir + " --shards 4",
                nullptr, tmp_),
            0);
  // Damage one column file inside the first shard directory.
  std::vector<std::string> shard_dirs;
  ASSERT_TRUE(ListFiles(dir + "/shard_0000.g1", ".gcl", &shard_dirs).ok());
  ASSERT_FALSE(shard_dirs.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(shard_dirs[0], &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileBytes(shard_dirs[0], bytes.data(), bytes.size()).ok());

  std::string out;
  EXPECT_NE(RunTool("verify " + dir, &out, tmp_), 0);
  std::string text = Slurp(out);
  EXPECT_NE(text.find("CORRUPT"), std::string::npos) << text;
  // The shard-qualified label points at the damaged directory.
  EXPECT_NE(text.find("shard_0000.g1/"), std::string::npos) << text;
}

// `geocol serve --cache-mb` (default 64) binds the result cache of every
// point cloud, sharded included: a statement repeated against a served
// sharded dir hits the shard engines' cache, and the drain summary says
// so.
TEST_F(ToolTest, ServeShardedDirHitsTheResultCache) {
  const std::string dir = tmp_->File("served_sharded");
  ASSERT_EQ(RunTool("shard " + tmp_->File("table") + " " + dir + " --shards 4",
                    nullptr, tmp_),
            0);
  const std::string tool = GEOCOL_TOOL_PATH;
  const std::string log = tmp_->File("serve_sharded.log");
  const std::string sql = "\"SELECT COUNT(*) FROM ahn2 WHERE z >= 0\"";
  // Start the server, read its port off the listening line, repeat the
  // statement three times (a large result is admitted on its second
  // sighting), then drain with SIGINT.
  const std::string script =
      tool + " serve " + dir + " --no-flight > " + log + " 2>&1 & pid=$!; " +
      "for i in $(seq 200); do port=$(sed -n " +
      R"('s/.*listening on [^:]*:\([0-9]*\).*/\1/p' )" + log +
      "); [ -n \"$port\" ] && break; sleep 0.05; done; " + tool +
      " client --port \"$port\" " + sql + " " + sql + " " + sql + " > " +
      log + ".client 2>&1; rc=$?; kill -INT $pid; wait $pid; exit $rc";
  ASSERT_EQ(std::system(script.c_str()), 0) << Slurp(log + ".client");
  const std::string text = Slurp(log);
  const size_t at = text.find("geocol serve: result cache ");
  ASSERT_NE(at, std::string::npos) << text;
  const std::string prefix = "geocol serve: result cache ";
  const uint64_t hits = std::stoull(text.substr(at + prefix.size()));
  EXPECT_GE(hits, 1u) << text;
}

// `geocol cache` on a sharded dir: the repeat's cache.hit spans sit under
// the shard.scan spans, and the run still reports the hit.
TEST_F(ToolTest, CacheCommandSeesShardLevelHits) {
  const std::string dir = tmp_->File("cached_sharded");
  ASSERT_EQ(RunTool("shard " + tmp_->File("table") + " " + dir + " --shards 4",
                    nullptr, tmp_),
            0);
  std::string out;
  ASSERT_EQ(RunTool("cache " + dir +
                        " \"SELECT COUNT(*) FROM ahn2 WHERE z >= 0\""
                        " --repeat 3 --no-flight",
                    &out, tmp_),
            0);
  const std::string text = Slurp(out);
  EXPECT_NE(text.find("run 3:"), std::string::npos) << text;
  EXPECT_NE(text.find("[cache hit]"), std::string::npos) << text;
}

TEST_F(ToolTest, LoadWithCorruptTileFailsAndLeavesNoManifest) {
  // A truncated tile in the middle of the directory: `geocol load` exits
  // non-zero and no table is committed.
  const std::string bad = tmp_->File("badtiles");
  ASSERT_TRUE(MakeDir(bad).ok());
  std::vector<std::string> tiles;
  ASSERT_TRUE(ListFiles(tmp_->File("tiles"), ".las", &tiles).ok());
  ASSERT_FALSE(tiles.empty());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(tiles[0], &bytes).ok());
  for (int i = 0; i < 5; ++i) {
    if (i == 2) bytes.resize(bytes.size() - 100);
    const std::string name = bad + "/t" + std::to_string(i) + ".las";
    ASSERT_TRUE(WriteFileBytes(name, bytes.data(), bytes.size()).ok());
    if (i == 2) ASSERT_TRUE(ReadFileBytes(tiles[0], &bytes).ok());
  }
  const std::string table = tmp_->File("badtable");
  std::string out;
  EXPECT_NE(RunTool("load " + bad + " " + table, &out, tmp_), 0);
  EXPECT_NE(Slurp(out).find("Corruption"), std::string::npos) << Slurp(out);
  EXPECT_FALSE(PathExists(table + "/schema.gct"));
}

TEST_F(ToolTest, ParallelLoadMatchesSequential) {
  ASSERT_EQ(RunTool("load " + tmp_->File("tiles") + " " + tmp_->File("ptable") +
                    " --threads 3",
                nullptr, tmp_),
            0);
  // COUNT/MIN/MAX are row-order independent (AVG is not, bit-wise).
  std::string out1, out2;
  ASSERT_EQ(RunTool("query " + tmp_->File("table") +
                    " \"SELECT COUNT(*), MIN(z), MAX(z) FROM ahn2\"",
                &out1, tmp_),
            0);
  ASSERT_EQ(RunTool("query " + tmp_->File("ptable") +
                    " \"SELECT COUNT(*), MIN(z), MAX(z) FROM ahn2\"",
                &out2, tmp_),
            0);
  // Identical result rows (the first line after the header separator).
  EXPECT_EQ(Slurp(out1).substr(Slurp(out1).find('\n')),
            Slurp(out2).substr(Slurp(out2).find('\n')));
}

}  // namespace
}  // namespace geocol
