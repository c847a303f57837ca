// Loader pipeline tests: the binary (in-memory COPY BINARY) path at every
// pool size, the CSV baseline path, and the key equivalence property —
// both loaders and the direct in-memory append produce identical tables,
// rows in file order. Damaged tiles end in a typed error or a clean
// decode, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>

#include "columns/column_file.h"
#include "core/imprints_io.h"
#include "las/las_reader.h"
#include "las/las_writer.h"
#include "loader/binary_loader.h"
#include "loader/csv_loader.h"
#include "pointcloud/generator.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"

namespace geocol {
namespace {

AhnGeneratorOptions TinyOptions() {
  AhnGeneratorOptions opts;
  opts.extent = Box(85000, 444000, 85100, 444100);
  opts.point_density = 2.0;
  opts.strip_width = 40.0;
  opts.scan_line_spacing = 0.7;
  opts.target_points_per_tile = 8000;
  return opts;
}

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gen_ = std::make_unique<AhnGenerator>(TinyOptions());
    ASSERT_TRUE(MakeDir(tiles_dir()).ok());
    ASSERT_TRUE(MakeDir(scratch_dir()).ok());
    auto tiles = gen_->WriteTileDirectory(tiles_dir(), /*compress=*/false);
    ASSERT_TRUE(tiles.ok());
    num_tiles_ = *tiles;
    // In-memory reference table (no file round trip).
    reference_ = std::make_shared<FlatTable>("ref", LasPointSchema());
    ASSERT_TRUE(gen_->GenerateTiles([&](LasTile& tile, uint64_t) {
      return AppendTileToTable(tile, reference_.get());
    }).ok());
  }

  std::string tiles_dir() const { return tmp_.File("tiles"); }
  std::string scratch_dir() const { return tmp_.File("scratch"); }

  static void ExpectTablesEqual(const FlatTable& a, const FlatTable& b) {
    ASSERT_EQ(a.num_columns(), b.num_columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.column(c)->type(), b.column(c)->type());
      ASSERT_EQ(a.column(c)->raw_size_bytes(), b.column(c)->raw_size_bytes());
      EXPECT_EQ(std::memcmp(a.column(c)->raw_data(), b.column(c)->raw_data(),
                            a.column(c)->raw_size_bytes()),
                0)
          << "column " << a.column(c)->name();
    }
  }

  /// Re-cuts the survey into uneven tiles (1 to 4097 points, one of them
  /// empty), alternately .las and .laz, under `dir`, and returns the table
  /// those tiles must load into: the pieces in ListFiles order.
  std::shared_ptr<FlatTable> WriteMixedDirectory(const std::string& dir) {
    EXPECT_TRUE(MakeDir(dir).ok());
    const size_t sizes[] = {1, 4097, 2500, 63, 1500, 0, 4096, 700};
    std::map<std::string, LasTile> pieces;
    size_t k = 0;
    EXPECT_TRUE(gen_->GenerateTiles([&](LasTile& tile, uint64_t) {
      for (size_t begin = 0; begin < tile.points.size(); ++k) {
        const size_t n = std::min(sizes[k % std::size(sizes)],
                                  tile.points.size() - begin);
        LasTile piece;
        piece.header = tile.header;
        piece.points.assign(tile.points.begin() + begin,
                            tile.points.begin() + begin + n);
        begin += n;
        char name[32];
        std::snprintf(name, sizeof(name), "/t%03zu.%s", k,
                      k % 2 == 0 ? "las" : "laz");
        GEOCOL_RETURN_NOT_OK(WriteTileFile(piece, dir + name));
        pieces[dir + name] = std::move(piece);
      }
      return Status::OK();
    }).ok());
    std::vector<std::string> files;
    EXPECT_TRUE(ListFiles(dir, ".las", &files).ok());
    EXPECT_TRUE(ListFiles(dir, ".laz", &files).ok());
    EXPECT_EQ(files.size(), pieces.size());
    EXPECT_GT(files.size(), 8u);  // more than one wave of a 4-thread pool
    auto expect = std::make_shared<FlatTable>("mixed", LasPointSchema());
    for (const std::string& f : files) {
      EXPECT_TRUE(AppendTileToTable(pieces.at(f), expect.get()).ok()) << f;
    }
    return expect;
  }

  TempDir tmp_;
  std::unique_ptr<AhnGenerator> gen_;
  std::shared_ptr<FlatTable> reference_;
  uint64_t num_tiles_ = 0;
};

TEST_F(LoaderTest, BinaryLoaderMatchesDirectAppend) {
  BinaryLoader loader(scratch_dir());
  LoadStats stats;
  auto table = loader.LoadDirectory(tiles_dir(), &stats);
  ASSERT_TRUE(table.ok());
  ExpectTablesEqual(*reference_, **table);
  EXPECT_EQ(stats.files, num_tiles_);
  EXPECT_EQ(stats.points, reference_->num_rows());
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.TotalSeconds(), 0.0);
  EXPECT_GT(stats.PointsPerSecond(), 0.0);
}

TEST_F(LoaderTest, EveryPoolSizeMatchesTheReferenceInFileOrder) {
  std::string laz_dir = tmp_.File("laz_tiles");
  ASSERT_TRUE(MakeDir(laz_dir).ok());
  ASSERT_TRUE(gen_->WriteTileDirectory(laz_dir, /*compress=*/true).ok());
  std::string mixed_dir = tmp_.File("mixed");
  std::shared_ptr<FlatTable> mixed = WriteMixedDirectory(mixed_dir);
  const std::pair<std::string, const FlatTable*> dirs[] = {
      {tiles_dir(), reference_.get()},
      {laz_dir, reference_.get()},
      {mixed_dir, mixed.get()}};
  BinaryLoader loader(scratch_dir());
  for (size_t threads : {0, 1, 2, 4}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    for (const auto& [dir, expect] : dirs) {
      SCOPED_TRACE(dir + " with " + std::to_string(threads) + " threads");
      LoadStats stats;
      auto table = loader.LoadDirectory(dir, &stats, pool.get());
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ExpectTablesEqual(*expect, **table);
      EXPECT_EQ(stats.points, expect->num_rows());
      EXPECT_GT(stats.wall_seconds, 0.0);
    }
  }
}

TEST_F(LoaderTest, CorruptTileMidDirectoryIsTypedAtEveryPoolSize) {
  // A truncated LAS tile fails the header pass; a LAZ tile whose first
  // bit width is impossible fails while its wave decodes.
  for (const char* damage : {"truncated_las", "bad_laz_width"}) {
    std::string dir = tmp_.File(std::string("bad_") + damage);
    WriteMixedDirectory(dir);
    std::vector<std::string> files;
    ASSERT_TRUE(ListFiles(dir, damage[0] == 't' ? ".las" : ".laz", &files)
                    .ok());
    const std::string victim = files[files.size() / 2];
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ReadFileBytes(victim, &bytes).ok());
    if (damage[0] == 't') {
      bytes.resize(bytes.size() - 30);
    } else {
      // Header (111 bytes) + payload size (8), then the first bit width.
      ASSERT_GT(bytes.size(), 119u);
      bytes[119] = 200;
    }
    ASSERT_TRUE(WriteFileBytes(victim, bytes.data(), bytes.size()).ok());
    BinaryLoader loader(scratch_dir());
    for (size_t threads : {0, 1, 2, 4}) {
      SCOPED_TRACE(std::string(damage) + ", " + std::to_string(threads) +
                   " threads");
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      EXPECT_EQ(loader.LoadDirectory(dir, nullptr, pool.get()).status().code(),
                StatusCode::kCorruption);
    }
  }
}

TEST_F(LoaderTest, PooledTableWriteIsByteIdentical) {
  ThreadPool pool(4);
  BinaryLoader loader(scratch_dir());
  auto table = loader.LoadDirectory(tiles_dir(), nullptr, &pool);
  ASSERT_TRUE(table.ok());
  const std::string serial = tmp_.File("serial"), pooled = tmp_.File("pooled");
  ASSERT_TRUE(WriteTableDir(**table, serial).ok());
  ASSERT_TRUE(WriteImprintsSidecars(**table, {"x", "y"}, serial).ok());
  ASSERT_TRUE(WriteTableDir(**table, pooled, &pool).ok());
  ASSERT_TRUE(WriteImprintsSidecars(**table, {"x", "y"}, pooled, &pool).ok());
  std::vector<std::string> a, b;
  ASSERT_TRUE(ListFiles(serial, "", &a).ok());
  ASSERT_TRUE(ListFiles(pooled, "", &b).ok());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), kLasAttributeCount + 3);  // + schema.gct, x/y.gim
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string name = a[i].substr(serial.size());
    ASSERT_EQ(name, b[i].substr(pooled.size()));
    std::vector<uint8_t> x, y;
    ASSERT_TRUE(ReadFileBytes(a[i], &x).ok());
    ASSERT_TRUE(ReadFileBytes(b[i], &y).ok());
    EXPECT_TRUE(x == y) << name;
  }
}

TEST_F(LoaderTest, LoadLeavesNoScratchFiles) {
  // The per-attribute arrays go from memory to the columns: nothing is
  // written, so nothing is left behind.
  BinaryLoader loader(scratch_dir());
  ThreadPool pool(2);
  auto table = loader.LoadDirectory(tiles_dir(), nullptr, &pool);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_columns(), kLasAttributeCount);
  std::vector<std::string> left;
  ASSERT_TRUE(ListFiles(scratch_dir(), "", &left).ok());
  EXPECT_TRUE(left.empty());
}

TEST_F(LoaderTest, RawDumpsCopyBinaryIntoMatchingColumns) {
  // COPY BINARY from external C-array files (WriteRawDump/AppendRawDump)
  // reproduces the table; a dump that is not whole values is refused.
  BinaryLoader loader(scratch_dir());
  auto table = loader.LoadDirectory(tiles_dir());
  ASSERT_TRUE(table.ok());
  FlatTable copy("copy", LasPointSchema());
  for (size_t c = 0; c < copy.num_columns(); ++c) {
    const std::string path = tmp_.File("dump" + std::to_string(c) + ".bin");
    ASSERT_TRUE(WriteRawDump(*(*table)->column(c), path).ok());
    ASSERT_TRUE(AppendRawDump(path, copy.column(c).get()).ok());
  }
  ExpectTablesEqual(**table, copy);
  const std::string odd = tmp_.File("odd.bin");
  ASSERT_TRUE(WriteFileBytes(odd, "12345", 5).ok());
  EXPECT_EQ(AppendRawDump(odd, copy.column("x").get()).code(),
            StatusCode::kCorruption);
}

TEST_F(LoaderTest, MutatedTilesDecodeCleanlyOrFailTyped) {
  // A seeded sweep of truncations and byte overwrites over one LAS and one
  // LAZ tile: the tiles carry no checksum, so a mutation may decode to
  // other values, but it must never crash, hang or allocate from a forged
  // count — each case is a clean decode or a typed Corruption.
  LasTile tile;
  ASSERT_TRUE(gen_->GenerateTiles([&](LasTile& t, uint64_t index) {
    if (index == 0) tile = t;
    return Status::OK();
  }).ok());
  tile.points.resize(std::min<size_t>(tile.points.size(), 5000));
  BinaryLoader loader(scratch_dir());
  ThreadPool pool(2);
  for (const char* suffix : {".las", ".laz"}) {
    const std::string dir = tmp_.File(std::string("sweep") + suffix);
    const std::string path = dir + "/tile" + suffix;
    ASSERT_TRUE(MakeDir(dir).ok());
    ASSERT_TRUE(WriteTileFile(tile, path).ok());
    std::vector<uint8_t> pristine;
    ASSERT_TRUE(ReadFileBytes(path, &pristine).ok());
    int clean = 0, typed = 0;
    for (uint64_t seed = 1; seed <= 150; ++seed) {
      SCOPED_TRACE(std::string(suffix) + " seed " + std::to_string(seed));
      Rng rng(seed);
      std::vector<uint8_t> bytes = pristine;
      switch (seed % 3) {
        case 0:  // truncation
          bytes.resize(rng.Uniform(bytes.size()));
          break;
        case 1:  // a few bytes anywhere
          for (uint64_t k = 1 + rng.Uniform(4); k > 0; --k) {
            bytes[rng.Uniform(bytes.size())] =
                static_cast<uint8_t>(rng.Uniform(256));
          }
          break;
        default:  // header, LAZ payload size and the first bit widths
          for (uint64_t k = 1 + rng.Uniform(2); k > 0; --k) {
            bytes[rng.Uniform(std::min<size_t>(bytes.size(), 160))] =
                static_cast<uint8_t>(rng.Uniform(256));
          }
          break;
      }
      ASSERT_TRUE(WriteFileBytes(path, bytes.data(), bytes.size()).ok());
      auto got = loader.LoadDirectory(dir, nullptr,
                                      seed % 2 == 0 ? &pool : nullptr);
      if (got.ok()) {
        ++clean;
        auto header = ReadLasHeader(path);
        ASSERT_TRUE(header.ok());
        EXPECT_EQ((*got)->num_rows(), header->point_count);
        EXPECT_TRUE((*got)->Validate().ok());
      } else {
        ++typed;
        EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
            << got.status().ToString();
      }
    }
    EXPECT_GT(typed, 0) << suffix;
    EXPECT_GT(clean, 0) << suffix;
  }
}

TEST_F(LoaderTest, CsvLoaderMatchesBinaryLoaderExactly) {
  BinaryLoader bloader(scratch_dir());
  CsvLoader cloader(scratch_dir());
  auto bt = bloader.LoadDirectory(tiles_dir());
  auto ct = cloader.LoadDirectory(tiles_dir());
  ASSERT_TRUE(bt.ok());
  ASSERT_TRUE(ct.ok());
  // CSV doubles are written with %.17g (round-trip exact), so the two load
  // paths must produce bit-identical tables.
  ExpectTablesEqual(**bt, **ct);
}

TEST_F(LoaderTest, CompressedTilesLoadIdentically) {
  std::string laz_dir = tmp_.File("laz_tiles");
  ASSERT_TRUE(MakeDir(laz_dir).ok());
  ASSERT_TRUE(gen_->WriteTileDirectory(laz_dir, /*compress=*/true).ok());
  BinaryLoader loader(scratch_dir());
  auto table = loader.LoadDirectory(laz_dir);
  ASSERT_TRUE(table.ok());
  ExpectTablesEqual(*reference_, **table);
}

TEST_F(LoaderTest, EmptyDirectoryIsNotFound) {
  std::string empty = tmp_.File("empty");
  ASSERT_TRUE(MakeDir(empty).ok());
  BinaryLoader loader(scratch_dir());
  EXPECT_EQ(loader.LoadDirectory(empty).status().code(),
            StatusCode::kNotFound);
  CsvLoader cloader(scratch_dir());
  EXPECT_EQ(cloader.LoadDirectory(empty).status().code(),
            StatusCode::kNotFound);
}

TEST_F(LoaderTest, CorruptTileSurfacesError) {
  std::string bad_dir = tmp_.File("bad");
  ASSERT_TRUE(MakeDir(bad_dir).ok());
  ASSERT_TRUE(WriteFileBytes(bad_dir + "/junk.las", "GARBAGE!", 8).ok());
  BinaryLoader loader(scratch_dir());
  EXPECT_EQ(loader.LoadDirectory(bad_dir).status().code(),
            StatusCode::kCorruption);
  ThreadPool pool(3);
  EXPECT_EQ(loader.LoadDirectory(bad_dir, nullptr, &pool).status().code(),
            StatusCode::kCorruption);
}

TEST_F(LoaderTest, StatsPhasesAllPopulated) {
  BinaryLoader loader(scratch_dir());
  LoadStats stats;
  ASSERT_TRUE(loader.LoadDirectory(tiles_dir(), &stats).ok());
  EXPECT_GT(stats.read_seconds, 0.0);
  EXPECT_GT(stats.convert_seconds, 0.0);
  EXPECT_GT(stats.append_seconds, 0.0);
}

}  // namespace
}  // namespace geocol
