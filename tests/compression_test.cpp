// Column compression codec tests: exact round trips per codec and type,
// auto-selection, corruption handling, and the compressed table directory.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "columns/compression.h"
#include "pointcloud/generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

void ExpectColumnsEqual(const Column& a, const Column& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.size(), b.size());
  if (a.size() == 0) return;  // no buffers; memcmp forbids null pointers
  EXPECT_EQ(std::memcmp(a.raw_data(), b.raw_data(), a.raw_size_bytes()), 0);
}

void RoundTrip(const Column& col, ColumnCodec codec,
               ColumnCodec expect_chosen = ColumnCodec::kAuto) {
  CompressionStats stats;
  auto data = CompressColumn(col, codec, &stats);
  ASSERT_TRUE(data.ok());
  if (expect_chosen != ColumnCodec::kAuto) {
    EXPECT_EQ(stats.codec, expect_chosen)
        << "expected " << ColumnCodecName(expect_chosen) << " got "
        << ColumnCodecName(stats.codec);
  }
  auto back = DecompressColumn(*data, col.name());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectColumnsEqual(col, **back);
}

TEST(CompressionTest, FileStatsReportOnDiskSize) {
  TempDir tmp;
  std::vector<int32_t> vals(1000);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<int32_t>(i);
  auto col = Column::FromVector("c", vals);
  std::string path = tmp.File("c.gcz");
  CompressionStats stats;
  ASSERT_TRUE(
      WriteCompressedColumnFile(*col, path, ColumnCodec::kAuto, &stats).ok());
  // compressed_bytes must count the whole file, CRC footer included.
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(stats.compressed_bytes, *size);
}

TEST(CompressionTest, RawRoundTripAllTypes) {
  Rng rng(201);
  for (int t = 0; t < kNumDataTypes; ++t) {
    auto col = std::make_shared<Column>("c", static_cast<DataType>(t));
    DispatchDataType(col->type(), [&]<typename T>() {
      for (int i = 0; i < 1000; ++i) {
        col->Append<T>(static_cast<T>(rng.UniformInt(-100, 100)));
      }
    });
    RoundTrip(*col, ColumnCodec::kRaw, ColumnCodec::kRaw);
  }
}

TEST(CompressionTest, RleRoundTripAndWins) {
  // Classification-like data: long runs of few values.
  std::vector<uint8_t> vals;
  Rng rng(202);
  while (vals.size() < 50000) {
    uint8_t v = static_cast<uint8_t>(rng.Uniform(6));
    size_t run = 50 + rng.Uniform(500);
    for (size_t i = 0; i < run; ++i) vals.push_back(v);
  }
  auto col = Column::FromVector("classification", vals);
  RoundTrip(*col, ColumnCodec::kRle, ColumnCodec::kRle);
  CompressionStats stats;
  auto data = CompressColumn(*col, ColumnCodec::kAuto, &stats);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(stats.codec, ColumnCodec::kRle);
  EXPECT_GT(stats.Ratio(), 10.0);
}

TEST(CompressionTest, ForRoundTripAndWinsOnBoundedInts) {
  // Intensity-like: uniform in a small range, no run structure.
  std::vector<uint16_t> vals(50000);
  Rng rng(203);
  for (auto& v : vals) v = static_cast<uint16_t>(100 + rng.Uniform(150));
  auto col = Column::FromVector("intensity", vals);
  RoundTrip(*col, ColumnCodec::kFor, ColumnCodec::kFor);
  CompressionStats stats;
  auto data = CompressColumn(*col, ColumnCodec::kAuto, &stats);
  ASSERT_TRUE(data.ok());
  // 150 distinct values fit in 8 bits vs 16 raw.
  EXPECT_GT(stats.Ratio(), 1.5);
}

TEST(CompressionTest, DeltaRoundTripAndWinsOnSortedData) {
  std::vector<int64_t> vals(50000);
  Rng rng(204);
  int64_t v = -1000000;
  for (auto& x : vals) {
    v += static_cast<int64_t>(rng.Uniform(20));
    x = v;
  }
  auto col = Column::FromVector("sorted", vals);
  RoundTrip(*col, ColumnCodec::kDelta, ColumnCodec::kDelta);
  CompressionStats stats;
  auto data = CompressColumn(*col, ColumnCodec::kAuto, &stats);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(stats.codec, ColumnCodec::kDelta);
  EXPECT_GT(stats.Ratio(), 8.0);  // ~5 bits/value vs 64
}

TEST(CompressionTest, FloatColumnsRoundTripExactly) {
  Rng rng(205);
  std::vector<double> vals(20000);
  for (auto& v : vals) v = rng.NextGaussian() * 1e6;
  vals[7] = 0.1 + 0.2;  // classic non-representable value
  vals[8] = -0.0;
  auto col = Column::FromVector("d", vals);
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta,
                            ColumnCodec::kAuto}) {
    RoundTrip(*col, codec);
  }
}

TEST(CompressionTest, NegativeValuesAllCodecs) {
  std::vector<int32_t> vals = {-2000000000, -1, 0, 1, 2000000000, -5, -5, -5};
  auto col = Column::FromVector("i", vals);
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta}) {
    RoundTrip(*col, codec);
  }
}

// The integer views of mixed-sign doubles and of int64 extremes span more
// than int64_t: FOR's max - min and DELTA's neighbour differences must wrap
// in uint64_t (a signed difference is undefined behaviour) and still
// round-trip bit for bit. RLE must not merge -0.0 into a run of 0.0.
TEST(CompressionTest, FullRangeBitPatternsAllCodecs) {
  std::vector<double> doubles = {-1.5, 2.25, -0.0, 0.0, 1e308, -1e308,
                                 -4.9e-324, 3.0, -3.0, 85000.125};
  std::vector<int64_t> ints = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(),
                               0,
                               -1,
                               std::numeric_limits<int64_t>::min(),
                               1,
                               std::numeric_limits<int64_t>::max()};
  auto dcol = Column::FromVector("d", doubles);
  auto icol = Column::FromVector("i", ints);
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta,
                            ColumnCodec::kAuto}) {
    SCOPED_TRACE(ColumnCodecName(codec));
    RoundTrip(*dcol, codec);
    RoundTrip(*icol, codec);
  }
}

TEST(CompressionTest, EmptyColumn) {
  Column col("e", DataType::kFloat32);
  RoundTrip(col, ColumnCodec::kAuto, ColumnCodec::kRaw);
}

TEST(CompressionTest, SingleValue) {
  auto col = Column::FromVector<uint64_t>("one", {42});
  for (ColumnCodec codec : {ColumnCodec::kRaw, ColumnCodec::kRle,
                            ColumnCodec::kFor, ColumnCodec::kDelta}) {
    RoundTrip(*col, codec);
  }
}

TEST(CompressionTest, ConstantColumnTiny) {
  auto col = Column::FromVector<double>("k", std::vector<double>(100000, 3.14));
  CompressionStats stats;
  auto data = CompressColumn(*col, ColumnCodec::kAuto, &stats);
  ASSERT_TRUE(data.ok());
  EXPECT_LT(stats.compressed_bytes, 200u) << "constant column must collapse";
  auto back = DecompressColumn(*data, "k");
  ASSERT_TRUE(back.ok());
  ExpectColumnsEqual(*col, **back);
}

TEST(CompressionTest, CorruptInputsRejected) {
  auto col = Column::FromVector<int32_t>("c", {1, 2, 3, 4});
  auto data = CompressColumn(*col, ColumnCodec::kDelta);
  ASSERT_TRUE(data.ok());
  // Bad magic.
  {
    auto bad = *data;
    bad[0] = 'X';
    EXPECT_FALSE(DecompressColumn(bad, "c").ok());
  }
  // Bad codec byte.
  {
    auto bad = *data;
    bad[5] = 99;
    EXPECT_FALSE(DecompressColumn(bad, "c").ok());
  }
  // Truncated payload.
  {
    auto bad = *data;
    bad.resize(bad.size() - 2);
    EXPECT_FALSE(DecompressColumn(bad, "c").ok());
  }
  // Absurd count.
  {
    auto bad = *data;
    uint64_t huge = uint64_t{1} << 50;
    std::memcpy(bad.data() + 6, &huge, 8);
    EXPECT_FALSE(DecompressColumn(bad, "c").ok());
  }
}

TEST(CompressionTest, LasColumnsCompressWell) {
  // The §3.1 claim on real-ish survey data: the flat table's columns are
  // compressible; acquisition-ordered coordinates delta-compress, flags
  // run-length-compress.
  AhnGeneratorOptions opts;
  opts.extent = Box(85000, 444000, 85150, 444150);
  AhnGenerator gen(opts);
  auto table = *gen.GenerateTable(60000);
  uint64_t raw = 0, compressed = 0;
  for (const auto& col : table->columns()) {
    CompressionStats stats;
    auto data = CompressColumn(*col, ColumnCodec::kAuto, &stats);
    ASSERT_TRUE(data.ok()) << col->name();
    raw += stats.uncompressed_bytes;
    compressed += stats.compressed_bytes;
    auto back = DecompressColumn(*data, col->name());
    ASSERT_TRUE(back.ok()) << col->name();
    ExpectColumnsEqual(*col, **back);
  }
  EXPECT_GT(static_cast<double>(raw) / compressed, 2.0)
      << "whole-table compression ratio should exceed 2x";
}

TEST(CompressedTableDirTest, RoundTrip) {
  TempDir tmp;
  AhnGeneratorOptions opts;
  opts.extent = Box(85000, 444000, 85080, 444080);
  AhnGenerator gen(opts);
  auto table = *gen.GenerateTable(15000);
  uint64_t bytes = 0;
  ASSERT_TRUE(WriteCompressedTableDir(*table, tmp.File("tbl"), &bytes).ok());
  EXPECT_GT(bytes, 0u);
  EXPECT_LT(bytes, table->DataBytes());
  auto back = ReadCompressedTableDir(tmp.File("tbl"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_columns(), table->num_columns());
  ASSERT_EQ(back->num_rows(), table->num_rows());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    ExpectColumnsEqual(*table->column(c), *back->column(c));
  }
}

TEST(CompressedTableDirTest, MissingDirFails) {
  EXPECT_FALSE(ReadCompressedTableDir("/nonexistent/dir").ok());
}

TEST(CompressionTest, CodecNames) {
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kRaw), "raw");
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kRle), "rle");
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kFor), "for");
  EXPECT_STREQ(ColumnCodecName(ColumnCodec::kDelta), "delta");
}

}  // namespace
}  // namespace geocol
