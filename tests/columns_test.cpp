// Columns substrate tests: typed columns, flat tables, persistence, CSV.
#include <gtest/gtest.h>

#include "columns/column.h"
#include "columns/column_file.h"
#include "columns/csv.h"
#include "columns/flat_table.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/tempdir.h"

namespace geocol {
namespace {

TEST(DataTypeTest, SizesAndNames) {
  EXPECT_EQ(DataTypeSize(DataType::kUInt8), 1u);
  EXPECT_EQ(DataTypeSize(DataType::kInt16), 2u);
  EXPECT_EQ(DataTypeSize(DataType::kFloat32), 4u);
  EXPECT_EQ(DataTypeSize(DataType::kFloat64), 8u);
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "int64");
  EXPECT_TRUE(IsFloatingPoint(DataType::kFloat32));
  EXPECT_FALSE(IsFloatingPoint(DataType::kUInt32));
  EXPECT_TRUE(IsSigned(DataType::kInt8));
  EXPECT_FALSE(IsSigned(DataType::kUInt64));
}

TEST(DataTypeTest, TraitsMapping) {
  EXPECT_EQ(DataTypeOf<int8_t>(), DataType::kInt8);
  EXPECT_EQ(DataTypeOf<double>(), DataType::kFloat64);
  EXPECT_EQ(DataTypeOf<uint16_t>(), DataType::kUInt16);
}

TEST(DataTypeTest, DispatchSelectsRightType) {
  size_t size = DispatchDataType(DataType::kInt16, []<typename T>() {
    return sizeof(T);
  });
  EXPECT_EQ(size, 2u);
}

TEST(ColumnTest, AppendAndRead) {
  Column col("z", DataType::kFloat64);
  col.Append<double>(1.5);
  col.Append<double>(-2.5);
  EXPECT_EQ(col.size(), 2u);
  auto vals = col.Values<double>();
  EXPECT_EQ(vals[0], 1.5);
  EXPECT_EQ(vals[1], -2.5);
  EXPECT_EQ(col.GetDouble(1), -2.5);
  EXPECT_EQ(col.GetInt64(0), 1);  // truncation
}

TEST(ColumnTest, EpochAdvancesOnMutation) {
  Column col("c", DataType::kInt32);
  uint64_t e0 = col.epoch();
  col.Append<int32_t>(1);
  EXPECT_GT(col.epoch(), e0);
  uint64_t e1 = col.epoch();
  (void)col.BeginRawUpdate();
  EXPECT_GT(col.epoch(), e1);
}

TEST(ColumnTest, StatsCachedAndInvalidated) {
  Column col("c", DataType::kInt32);
  col.Append<int32_t>(5);
  col.Append<int32_t>(-3);
  EXPECT_EQ(col.Stats().min, -3);
  EXPECT_EQ(col.Stats().max, 5);
  col.Append<int32_t>(100);
  EXPECT_EQ(col.Stats().max, 100);
}

TEST(ColumnTest, AppendRawMatchesTyped) {
  Column a("a", DataType::kUInt16), b("b", DataType::kUInt16);
  std::vector<uint16_t> vals = {1, 2, 65535};
  a.AppendSpan<uint16_t>(vals);
  b.AppendRaw(vals.data(), vals.size());
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(a.GetInt64(i), b.GetInt64(i));
  }
}

TEST(ColumnTest, FromVector) {
  auto col = Column::FromVector<float>("f", {1.0f, 2.0f});
  EXPECT_EQ(col->type(), DataType::kFloat32);
  EXPECT_EQ(col->size(), 2u);
}

TEST(ColumnTest, GetDoubleAcrossAllTypes) {
  for (int t = 0; t < kNumDataTypes; ++t) {
    Column col("c", static_cast<DataType>(t));
    DispatchDataType(col.type(), [&]<typename T>() {
      col.Append<T>(static_cast<T>(7));
    });
    EXPECT_EQ(col.GetDouble(0), 7.0) << DataTypeName(col.type());
    EXPECT_EQ(col.GetInt64(0), 7) << DataTypeName(col.type());
  }
}

// ---------------- Schema / FlatTable ----------------

TEST(SchemaTest, FieldLookup) {
  Schema s({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}});
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.FieldIndex("y"), 1);
  EXPECT_EQ(s.FieldIndex("nope"), -1);
  EXPECT_TRUE(s.HasField("x"));
  Schema t({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}});
  EXPECT_TRUE(s == t);
  Schema u({{"x", DataType::kFloat32}, {"y", DataType::kFloat64}});
  EXPECT_FALSE(s == u);
}

TEST(FlatTableTest, SchemaConstruction) {
  FlatTable t("pc", Schema({{"x", DataType::kFloat64},
                            {"i", DataType::kUInt16}}));
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_NE(t.column("x"), nullptr);
  EXPECT_EQ(t.column("nope"), nullptr);
}

TEST(FlatTableTest, AddColumnRejectsDuplicatesAndRaggedness) {
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("a", {1, 2})).ok());
  EXPECT_EQ(t.AddColumn(Column::FromVector<double>("a", {1, 2})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.AddColumn(Column::FromVector<double>("b", {1})).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.AddColumn(nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(FlatTableTest, ValidateDetectsRaggedTable) {
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("a", {1, 2})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("b", {3, 4})).ok());
  EXPECT_TRUE(t.Validate().ok());
  t.column("b")->Append<double>(5);
  EXPECT_EQ(t.Validate().code(), StatusCode::kCorruption);
}

TEST(FlatTableTest, GetColumnErrors) {
  FlatTable t("t");
  EXPECT_EQ(t.GetColumn("missing").status().code(), StatusCode::kNotFound);
}

TEST(FlatTableTest, DataBytes) {
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("a", {1, 2})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint8_t>("b", {1, 2})).ok());
  EXPECT_EQ(t.DataBytes(), 2 * 8u + 2 * 1u);
}

// ---------------- column files ----------------

TEST(ColumnFileTest, RoundTrip) {
  TempDir tmp;
  auto col = Column::FromVector<int32_t>("c", {1, -2, 3});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  auto back = ReadColumnFile(tmp.File("c.gcl"), "c");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->type(), DataType::kInt32);
  ASSERT_EQ((*back)->size(), 3u);
  EXPECT_EQ((*back)->GetInt64(1), -2);
}

TEST(ColumnFileTest, AppendAccumulates) {
  TempDir tmp;
  auto col = Column::FromVector<double>("c", {1.0, 2.0});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  Column dst("c", DataType::kFloat64);
  ASSERT_TRUE(AppendColumnFile(tmp.File("c.gcl"), &dst).ok());
  ASSERT_TRUE(AppendColumnFile(tmp.File("c.gcl"), &dst).ok());
  EXPECT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.GetDouble(3), 2.0);
}

TEST(ColumnFileTest, AppendTypeMismatchRejected) {
  TempDir tmp;
  auto col = Column::FromVector<double>("c", {1.0});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  Column dst("c", DataType::kInt32);
  EXPECT_EQ(AppendColumnFile(tmp.File("c.gcl"), &dst).code(),
            StatusCode::kInvalidArgument);
}

TEST(ColumnFileTest, CorruptMagicRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("bad.gcl"), "XXXXYYYY", 8).ok());
  EXPECT_EQ(ReadColumnFile(tmp.File("bad.gcl"), "c").status().code(),
            StatusCode::kCorruption);
}

TEST(ColumnFileTest, TruncatedFileRejected) {
  TempDir tmp;
  auto col = Column::FromVector<double>("c", {1.0, 2.0, 3.0});
  ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
  // Truncate the value payload.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(tmp.File("c.gcl"), &bytes).ok());
  bytes.resize(bytes.size() - 5);
  ASSERT_TRUE(WriteFileBytes(tmp.File("c.gcl"), bytes.data(), bytes.size()).ok());
  EXPECT_EQ(ReadColumnFile(tmp.File("c.gcl"), "c").status().code(),
            StatusCode::kCorruption);
}

TEST(ColumnFileTest, RawDumpRoundTrip) {
  TempDir tmp;
  auto col = Column::FromVector<uint16_t>("i", {7, 8, 9});
  ASSERT_TRUE(WriteRawDump(*col, tmp.File("i.bin")).ok());
  auto size = FileSizeBytes(tmp.File("i.bin"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 6u);  // raw C-array: no header at all
  Column dst("i", DataType::kUInt16);
  ASSERT_TRUE(AppendRawDump(tmp.File("i.bin"), &dst).ok());
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.GetInt64(2), 9);
}

TEST(ColumnFileTest, RawDumpMisalignedSizeRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("odd.bin"), "abc", 3).ok());
  Column dst("i", DataType::kUInt16);
  EXPECT_EQ(AppendRawDump(tmp.File("odd.bin"), &dst).code(),
            StatusCode::kCorruption);
}

// ---------------- the direct-read open path ----------------

ColumnPtr DoublesColumn(size_t rows) {
  std::vector<double> v(rows);
  for (size_t i = 0; i < rows; ++i) v[i] = static_cast<double>(i) * 1.5 - 7;
  return Column::FromVector("c", v);
}

// Every way a column file can be damaged is a typed Corruption, from a
// fresh read and from an append — and a failed append leaves the target
// column exactly as it was.
TEST(ColumnFileTest, DamagedFilesAreTypedCorruption) {
  TempDir tmp;
  const size_t rows = kColumnChunkBytes / sizeof(double) * 3 + 1234;
  ASSERT_TRUE(WriteColumnFile(*DoublesColumn(rows), tmp.File("c.gcl")).ok());
  std::vector<uint8_t> good;
  ASSERT_TRUE(ReadFileBytes(tmp.File("c.gcl"), &good).ok());

  struct Damage {
    const char* what;
    std::vector<uint8_t> bytes;
  };
  std::vector<Damage> damages;
  auto add = [&](const char* what, auto&& edit) {
    std::vector<uint8_t> b = good;
    edit(&b);
    damages.push_back({what, std::move(b)});
  };
  add("truncated by one byte", [](auto* b) { b->pop_back(); });
  add("truncated by one chunk",
      [](auto* b) { b->resize(b->size() - kColumnChunkBytes); });
  add("truncated inside the chunk directory", [](auto* b) { b->resize(30); });
  add("padded by one byte", [](auto* b) { b->push_back(0); });
  add("padded by one value", [](auto* b) { b->insert(b->end(), 8, 0); });
  add("flipped payload byte",
      [](auto* b) { (*b)[b->size() - kColumnChunkBytes * 3 / 2] ^= 0x01; });
  add("flipped header count byte", [](auto* b) { (*b)[5] ^= 0x01; });
  add("header count off by one, header crc recomputed", [](auto* b) {
    uint64_t count = 0;
    std::memcpy(&count, b->data() + 5, 8);
    ++count;
    std::memcpy(b->data() + 5, &count, 8);
    uint32_t crc = Crc32c(b->data(), 17);
    std::memcpy(b->data() + 17, &crc, 4);
  });

  for (const Damage& d : damages) {
    SCOPED_TRACE(d.what);
    const std::string path = tmp.File("bad.gcl");
    ASSERT_TRUE(WriteFileBytes(path, d.bytes.data(), d.bytes.size()).ok());
    EXPECT_EQ(ReadColumnFile(path, "c").status().code(),
              StatusCode::kCorruption);

    auto dst = Column::FromVector<double>("c", {4.0, 2.0});
    const uint64_t epoch = dst->epoch();
    const uint32_t crc = dst->payload_crc32c();
    EXPECT_EQ(AppendColumnFile(path, dst.get()).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(dst->size(), 2u);
    EXPECT_EQ(dst->epoch(), epoch);
    EXPECT_EQ(dst->payload_crc32c(), crc);
    EXPECT_EQ(dst->GetDouble(1), 2.0);
  }
}

// A header claiming 2^40 float64 rows (8 TiB) over a 16-byte payload must
// fail the size check. Were the column sized from the header first, the
// allocation itself would throw (or abort under ASan) instead.
TEST(ColumnFileTest, SizeIsCheckedBeforeTheColumnIsAllocated) {
  TempDir tmp;
  const uint8_t type = static_cast<uint8_t>(DataType::kFloat64);
  const uint8_t payload[16] = {};

  BufferWriter legacy;
  legacy.WriteBytes("GCL1", 4);
  legacy.WriteScalar<uint8_t>(type);
  legacy.WriteScalar<uint64_t>(uint64_t{1} << 40);
  legacy.WriteBytes(payload, sizeof(payload));

  // The same claim in a v2 header with a valid header CRC: 2^37 rows in
  // 1 GiB chunks, so the chunk directory (1024 CRCs) is present in full.
  BufferWriter v2;
  v2.WriteBytes("GCL2", 4);
  v2.WriteScalar<uint8_t>(type);
  v2.WriteScalar<uint64_t>(uint64_t{1} << 37);
  v2.WriteScalar<uint32_t>(uint32_t{1} << 30);
  v2.WriteScalar<uint32_t>(Crc32c(v2.buffer().data(), v2.size()));
  for (int c = 0; c < 1024; ++c) v2.WriteScalar<uint32_t>(0);
  v2.WriteBytes(payload, sizeof(payload));

  for (const BufferWriter* file : {&legacy, &v2}) {
    const std::string path = tmp.File("huge.gcl");
    ASSERT_TRUE(
        WriteFileBytes(path, file->buffer().data(), file->size()).ok());
    EXPECT_EQ(ReadColumnFile(path, "c").status().code(),
              StatusCode::kCorruption);
    Column dst("c", DataType::kFloat64);
    EXPECT_EQ(AppendColumnFile(path, &dst).code(), StatusCode::kCorruption);
    EXPECT_EQ(dst.MemoryBytes(), 0u);
  }
}

// Columns below and above the huge-page threshold read back byte for byte
// at epoch 1, exactly sized, with the payload CRC folded from the chunk
// CRCs; the first mutation drops that CRC and it is recomputed.
TEST(ColumnFileTest, SmallAndHugeColumnsRoundTripAtEpochOne) {
  TempDir tmp;
  const size_t huge_rows = kHugeColumnBufferBytes / sizeof(double);
  for (size_t rows : {size_t{3}, size_t{1000}, huge_rows - 1, huge_rows,
                      huge_rows + 4097}) {
    SCOPED_TRACE(rows);
    ColumnPtr col = DoublesColumn(rows);
    ASSERT_TRUE(WriteColumnFile(*col, tmp.File("c.gcl")).ok());
    auto back = ReadColumnFile(tmp.File("c.gcl"), "c");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    Column& got = **back;
    ASSERT_EQ(got.size(), rows);
    EXPECT_EQ(got.epoch(), 1u);
    EXPECT_EQ(std::memcmp(got.raw_data(), col->raw_data(), rows * 8), 0);
    EXPECT_EQ(got.MemoryBytes(), got.raw_size_bytes());
    EXPECT_EQ(got.payload_crc32c(), Crc32c(col->raw_data(), rows * 8));
    if (got.raw_size_bytes() >= kHugeColumnBufferBytes) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(got.raw_data()) % (2u << 20), 0u);
    }

    // Appending the file again keeps the CRC known and right.
    ASSERT_TRUE(AppendColumnFile(tmp.File("c.gcl"), &got).ok());
    ASSERT_EQ(got.size(), 2 * rows);
    EXPECT_EQ(got.epoch(), 2u);
    EXPECT_EQ(got.payload_crc32c(), Crc32c(got.raw_data(), 2 * rows * 8));

    got.BeginRawUpdate()[0] ^= 0x01;
    EXPECT_EQ(got.payload_crc32c(), Crc32c(got.raw_data(), 2 * rows * 8));
  }
}

TEST(TableDirTest, RoundTrip) {
  TempDir tmp;
  FlatTable t("survey");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("x", {1, 2, 3})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint8_t>("c", {4, 5, 6})).ok());
  ASSERT_TRUE(WriteTableDir(t, tmp.File("tbl")).ok());
  auto back = ReadTableDir(tmp.File("tbl"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name(), "survey");
  EXPECT_EQ(back->num_columns(), 2u);
  EXPECT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->column("c")->GetInt64(2), 6);
  EXPECT_TRUE(back->schema() == t.schema());
}

TEST(TableDirTest, MissingDirFails) {
  EXPECT_FALSE(ReadTableDir("/nonexistent/table").ok());
}

// ---------------- CSV ----------------

TEST(CsvTest, RoundTrip) {
  TempDir tmp;
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<double>("x", {1.25, -2.5})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<int32_t>("n", {7, -8})).ok());
  ASSERT_TRUE(WriteCsv(t, tmp.File("t.csv")).ok());
  auto back = ReadCsv(tmp.File("t.csv"), t.schema());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->column("x")->GetDouble(0), 1.25);
  EXPECT_EQ(back->column("n")->GetInt64(1), -8);
}

TEST(CsvTest, HeaderMismatchRejected) {
  TempDir tmp;
  ASSERT_TRUE(WriteFileBytes(tmp.File("bad.csv"), "a,b\n1,2\n", 8).ok());
  FlatTable t("t", Schema({{"x", DataType::kFloat64},
                           {"y", DataType::kFloat64}}));
  EXPECT_EQ(AppendCsv(tmp.File("bad.csv"), &t).code(),
            StatusCode::kCorruption);
}

TEST(CsvTest, ArityMismatchRejected) {
  TempDir tmp;
  ASSERT_TRUE(
      WriteFileBytes(tmp.File("bad.csv"), "x,y\n1,2\n3\n", 10).ok());
  FlatTable t("t", Schema({{"x", DataType::kFloat64},
                           {"y", DataType::kFloat64}}));
  EXPECT_EQ(AppendCsv(tmp.File("bad.csv"), &t).code(),
            StatusCode::kCorruption);
}

TEST(CsvTest, GarbageValueRejected) {
  TempDir tmp;
  ASSERT_TRUE(
      WriteFileBytes(tmp.File("bad.csv"), "x\nfoo\n", 6).ok());
  FlatTable t("t", Schema({{"x", DataType::kFloat64}}));
  EXPECT_EQ(AppendCsv(tmp.File("bad.csv"), &t).code(),
            StatusCode::kCorruption);
}

TEST(CsvTest, AllIntegerTypesSurviveRoundTrip) {
  TempDir tmp;
  FlatTable t("t");
  ASSERT_TRUE(t.AddColumn(Column::FromVector<int8_t>("i8", {-128, 127})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint8_t>("u8", {0, 255})).ok());
  ASSERT_TRUE(
      t.AddColumn(Column::FromVector<int16_t>("i16", {-32768, 32767})).ok());
  ASSERT_TRUE(
      t.AddColumn(Column::FromVector<uint16_t>("u16", {0, 65535})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<int64_t>(
                             "i64", {-123456789012345LL, 5})).ok());
  ASSERT_TRUE(t.AddColumn(Column::FromVector<uint64_t>(
                             "u64", {0, 987654321098765ULL})).ok());
  ASSERT_TRUE(WriteCsv(t, tmp.File("t.csv")).ok());
  auto back = ReadCsv(tmp.File("t.csv"), t.schema());
  ASSERT_TRUE(back.ok());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      EXPECT_EQ(back->column(c)->GetInt64(r), t.column(c)->GetInt64(r))
          << t.column(c)->name() << " row " << r;
    }
  }
}

}  // namespace
}  // namespace geocol
