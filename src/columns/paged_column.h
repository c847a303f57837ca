// The paged (out-of-core) storage tier behind the Column interface
// (DESIGN.md §14). A PagedColumn keeps only its chunk directory in
// memory; the 256 KiB CRC chunks of the column file are the paging unit,
// faulted on demand with positioned reads, CRC-verified at fault time,
// and cached in the process-wide budgeted ChunkCache. Scans walk pins
// (ForEachValueRun), so imprint pruning translates directly into chunks
// that are never read.
//
// Two on-disk layouts page:
//   - "GCL2" column files as written by WriteColumnFile: raw values, one
//     CRC per 256 KiB chunk. Faults are a single pread + CRC check.
//   - "GPC1" chunked-compressed files (written here): every 256 KiB
//     decoded chunk is compressed independently with the compression.h
//     codecs, so a fault is pread + CRC check + decompress-on-demand.
//     The whole-column "GCC2" .gcz format cannot page (one codec stream,
//     no chunk boundaries); WriteChunkedCompressedTableDir is its
//     paged-capable replacement, and resident opens of GPC1 files keep
//     working through ReadCompressedColumnFile.
//
// Paged columns are read-only: every mutation path (appends, shuffles,
// rewrites) returns InvalidArgument upstream. They pin epoch 1 — the
// epoch a resident read of the same file lands on — so both open modes
// report the same column epochs. Imprint sidecars do not depend on it:
// they match on the payload fingerprint (core/imprints_io.h).
#ifndef GEOCOL_COLUMNS_PAGED_COLUMN_H_
#define GEOCOL_COLUMNS_PAGED_COLUMN_H_

#include <memory>
#include <string>
#include <vector>

#include "columns/column.h"
#include "columns/compression.h"
#include "columns/flat_table.h"
#include "util/status.h"

namespace geocol {

class PagedColumn : public Column {
 public:
  ~PagedColumn() override;

  /// Opens a "GCL2" or "GPC1" file for demand paging: parses and verifies
  /// the header and chunk directory, touches no payload. Legacy and
  /// whole-column-compressed files are InvalidArgument.
  static Result<std::shared_ptr<PagedColumn>> Open(const std::string& path,
                                                   const std::string& name);

  size_t size() const override { return static_cast<size_t>(rows_); }
  bool paged() const override { return true; }
  size_t chunk_rows() const override { return chunk_rows_; }
  size_t num_chunks() const override { return chunks_.size(); }

  /// Faults (or finds cached) one chunk. The pin shares ownership with
  /// the cache, so concurrent evictions never free it under the caller.
  Result<ColumnChunkPin> PinChunk(size_t chunk_index) const override;

  double GetDouble(size_t row) const override;
  Status GetDoubleBatch(const uint64_t* rows, size_t n,
                        double* out) const override;
  int64_t GetInt64(size_t row) const override;

  /// Lazy min/max via one streaming pass over the chunks. A fault failure
  /// during the pass degrades to the conservative (-inf, +inf) range —
  /// pruning built on it never excludes anything, so answers stay
  /// correct and the I/O error surfaces from the scan that needs the
  /// actual values.
  const ColumnStats& Stats() const override;

  /// Answered from the on-disk chunk CRCs (Crc32cCombine) without
  /// faulting a single payload byte, so imprint sidecar fingerprints
  /// agree with the resident open of the same file.
  uint32_t payload_crc32c() const override { return payload_crc_; }

  size_t raw_size_bytes() const override {
    return static_cast<size_t>(rows_) * width();
  }

  /// Directory overhead only — faulted chunks are charged to the
  /// process-wide chunk cache, not to the column.
  size_t MemoryBytes() const override;

  const std::string& path() const { return path_; }
  /// Process-unique chunk-cache keying id of this open.
  uint64_t file_id() const { return file_id_; }
  /// True for GPC1 files (faults decompress), false for GCL2 (raw).
  bool compressed() const { return compressed_; }

 private:
  struct ChunkInfo {
    uint64_t offset = 0;        ///< file offset of the stored bytes
    uint32_t stored_bytes = 0;  ///< on-disk bytes (== decoded for GCL2)
    uint32_t crc = 0;           ///< CRC32C of the stored bytes
    uint8_t codec = 0;          ///< ColumnCodec (kRaw for GCL2)
  };

  PagedColumn(std::string name, DataType type);

  size_t RowsInChunk(size_t chunk_index) const;
  /// Reads, verifies and (for GPC1) decompresses one chunk from disk.
  Result<std::shared_ptr<const std::vector<uint8_t>>> FaultChunk(
      size_t chunk_index) const;

  std::string path_;
  uint64_t file_id_ = 0;
  uint64_t rows_ = 0;
  size_t chunk_rows_ = 0;
  uint32_t payload_crc_ = 0;
  bool compressed_ = false;
  std::vector<ChunkInfo> chunks_;
  mutable std::mutex paged_stats_mu_;
  mutable ColumnStats paged_stats_;
};

/// PagedColumn::Open as a ColumnPtr — the drop-in counterpart of
/// ReadColumnFile for the paged open mode.
Result<ColumnPtr> OpenPagedColumnFile(const std::string& path,
                                      const std::string& name);

/// Writes `column` as a chunked-compressed "GPC1" file (atomically):
/// magic | type u8 | count u64 | chunk_bytes u32 | payload crc | header
/// crc | per-chunk {codec u8, bytes u32, crc u32} directory | compressed
/// chunks. Every chunk is encoded independently (kAuto picks per chunk),
/// which is what makes decompress-on-demand possible.
Status WriteChunkedCompressedColumnFile(const Column& column,
                                        const std::string& path,
                                        ColumnCodec codec = ColumnCodec::kAuto,
                                        CompressionStats* stats = nullptr);

/// True when `data` starts with the GPC1 magic.
bool IsChunkedCompressedBuffer(const uint8_t* data, size_t size);

/// Decodes a whole GPC1 buffer into a resident column — the resident
/// open path of chunked-compressed files (ReadCompressedColumnFile
/// delegates here on the GPC1 magic). Verifies every chunk CRC plus the
/// whole-payload CRC.
Result<ColumnPtr> DecompressChunkedColumn(const std::vector<uint8_t>& data,
                                          const std::string& name);

/// Persists a table with per-chunk compression: `<dir>/schema.gct` +
/// `<dir>/<col>.gN.gcz` GPC1 files, same generation/manifest-swap
/// protocol as WriteTableDir. The result opens resident
/// (ReadCompressedTableDir) and paged (ReadTableDirPaged) with
/// bit-identical contents.
Status WriteChunkedCompressedTableDir(const FlatTable& table,
                                      const std::string& dir,
                                      uint64_t* total_bytes = nullptr);

/// Opens every column of a persisted table for demand paging. Works on
/// WriteTableDir output (GCL2) and WriteChunkedCompressedTableDir output
/// (GPC1); legacy and whole-column-compressed tables must open resident.
Result<FlatTable> ReadTableDirPaged(const std::string& dir);

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_PAGED_COLUMN_H_
