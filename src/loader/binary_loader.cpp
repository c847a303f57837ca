#include "loader/binary_loader.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "las/las_reader.h"
#include "util/binary_io.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geocol {

namespace {

/// Runs fn(i) for i in [0, n): on `pool` when there is one, else in order
/// on the caller.
void ForEach(ThreadPool* pool, size_t n,
             const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

/// One tile of a wave: its per-attribute arrays and what decoding it cost.
struct StagedTile {
  FlatTable table{"staging", LasPointSchema()};
  LoadStats stats;
  Status status;
};

void DecodeTile(const std::string& path, StagedTile* s) {
  Timer t;
  Result<LasTile> tile = ReadLasFile(path);
  if (!tile.ok()) {
    s->status = tile.status();
    return;
  }
  s->stats.read_seconds = t.ElapsedSeconds();
  s->stats.points = tile->points.size();
  t.Restart();
  s->status = AppendTileToTable(*tile, &s->table);
  s->stats.convert_seconds = t.ElapsedSeconds();
}

}  // namespace

Result<std::shared_ptr<FlatTable>> BinaryLoader::LoadDirectory(
    const std::string& dir, LoadStats* stats, ThreadPool* pool) {
  Timer wall;
  std::vector<std::string> files;
  GEOCOL_RETURN_NOT_OK(ListFiles(dir, ".las", &files));
  GEOCOL_RETURN_NOT_OK(ListFiles(dir, ".laz", &files));
  if (files.empty()) {
    return Status::NotFound("no .las/.laz files under " + dir);
  }
  LoadStats total;
  // Size every column once, from the header counts. ReadLasHeader bounds a
  // LAS count by the file's bytes; a LAZ count is bounded only by 4096
  // points per 26 payload bytes, so each tile reserves at most one row per
  // byte of its file and a forged count cannot inflate the reservation.
  Timer t;
  uint64_t rows = 0;
  for (const std::string& f : files) {
    GEOCOL_ASSIGN_OR_RETURN(uint64_t bytes, FileSizeBytes(f));
    GEOCOL_ASSIGN_OR_RETURN(LasHeader h, ReadLasHeader(f));
    rows += std::min(h.point_count, bytes);
    total.bytes_read += bytes;
  }
  auto table = std::make_shared<FlatTable>("ahn2", LasPointSchema());
  for (const ColumnPtr& col : table->columns()) col->Reserve(rows);
  total.read_seconds += t.ElapsedSeconds();

  const size_t wave_size =
      pool == nullptr ? 1 : std::max<size_t>(1, 2 * pool->num_threads());
  for (size_t begin = 0; begin < files.size(); begin += wave_size) {
    const size_t n = std::min(wave_size, files.size() - begin);
    std::vector<StagedTile> wave(n);
    ForEach(pool, n, [&](size_t i) { DecodeTile(files[begin + i], &wave[i]); });
    for (const StagedTile& s : wave) {
      GEOCOL_RETURN_NOT_OK(s.status);
      total.points += s.stats.points;
      total.read_seconds += s.stats.read_seconds;
      total.convert_seconds += s.stats.convert_seconds;
    }
    // COPY BINARY from memory: each column takes the wave's arrays in file
    // order (append order defines row order); columns are independent.
    t.Restart();
    ForEach(pool, table->num_columns(), [&](size_t c) {
      Column* dst = table->column(c).get();
      for (const StagedTile& s : wave) {
        const Column& src = *s.table.column(c);
        dst->AppendRaw(src.raw_data(), src.size());
      }
    });
    total.append_seconds += t.ElapsedSeconds();
  }
  GEOCOL_RETURN_NOT_OK(table->Validate());
  total.files = files.size();
  total.wall_seconds = wall.ElapsedSeconds();
  if (stats != nullptr) *stats = total;
  return table;
}

}  // namespace geocol
