// On-disk persistence of columns and tables: one binary file per column
// plus a schema manifest per table, mirroring MonetDB's per-BAT files and
// the COPY BINARY bulk-append path (paper §3.2).
//
// Durability model:
//   - Column files ("GCL2") carry a CRC32C over the header and one per
//     256 KiB payload chunk, verified during the read.
//   - The manifest ("GCT2") carries a generation number and a whole-file
//     CRC32C footer, and records the file name of every column.
//   - All files are written with the atomic durable protocol (tmp ->
//     fsync -> rename -> fsync dir). WriteTableDir writes generation N's
//     column files under new names (concurrently, given a pool) and swaps
//     the manifest last, so a crash at ANY point leaves the previous
//     generation fully readable.
//   - Legacy "GCL1"/"GCT1" files (no checksums) are still readable.
#ifndef GEOCOL_COLUMNS_COLUMN_FILE_H_
#define GEOCOL_COLUMNS_COLUMN_FILE_H_

#include <string>
#include <vector>

#include "columns/flat_table.h"
#include "util/status.h"

namespace geocol {

class ThreadPool;

/// Payload bytes covered by each column-file chunk CRC.
constexpr size_t kColumnChunkBytes = 256 * 1024;

/// Writes a column to `path` atomically:
/// magic "GCL2" | type(u8) | count(u64) | chunk_bytes(u32) | header crc |
/// chunk crcs | raw values.
Status WriteColumnFile(const Column& column, const std::string& path);

/// Reads a column file written by WriteColumnFile (or a legacy "GCL1"
/// file). The column name is not stored in the file; callers supply it (it
/// is the file's role in the table manifest). The file size is checked
/// against the header before the column is sized, and the payload is read
/// straight into the column's buffer. `verify_checksums` exists so
/// benchmarks can measure the verification overhead; corruption checks
/// that need no extra pass (sizes, magic, types) always run.
Result<ColumnPtr> ReadColumnFile(const std::string& path,
                                 const std::string& name,
                                 bool verify_checksums = true);

/// Appends the raw value payload of a column file to `column` — the
/// COPY BINARY fast path. Types must match; checksums are verified.
Status AppendColumnFile(const std::string& path, Column* column);

/// The chunk directory of a "GCL2" file, parsed and header-verified
/// without touching the payload — everything the paged open needs to
/// fault chunks on demand. InvalidArgument for legacy "GCL1" files (no
/// chunk CRCs, so nothing can vouch for a faulted chunk).
struct ColumnFileLayout {
  DataType type = DataType::kFloat64;
  uint64_t count = 0;
  uint32_t chunk_bytes = 0;
  uint64_t payload_offset = 0;  ///< file offset of the first payload byte
  std::vector<uint32_t> chunk_crcs;
};
Result<ColumnFileLayout> ReadColumnFileLayout(const std::string& path);

/// Writes a raw C-array dump (no header): exactly what the paper's binary
/// loader emits per attribute before COPY BINARY. Atomic, so a reader
/// never observes a torn dump.
Status WriteRawDump(const Column& column, const std::string& path);

/// Appends a raw C-array dump of `type` to `column`.
Status AppendRawDump(const std::string& path, Column* column);

/// The parsed `<dir>/schema.gct` manifest: which columns a table has and
/// which file currently holds each of them.
struct TableManifest {
  struct ManifestColumn {
    std::string name;
    DataType type = DataType::kFloat64;
    /// File name within the table dir; empty in legacy manifests (the
    /// column then lives at `<name>.gcl` / `<name>.gcz`).
    std::string filename;
  };

  std::string table_name;
  /// Incremented by every successful WriteTableDir; generation N's column
  /// files are named `<col>.gN.gcl` so writing N+1 never touches them.
  uint64_t generation = 0;
  bool legacy = false;  ///< "GCT1": no generation, no filenames, no crc
  std::vector<ManifestColumn> columns;
};

/// Writes `<dir>/schema.gct` atomically with a CRC32C footer. This is the
/// commit point of a table write: readers follow the manifest, so the swap
/// atomically publishes the generation it references.
Status WriteTableManifest(const std::string& dir, const TableManifest& m);

/// Reads and checksum-verifies `<dir>/schema.gct` ("GCT1" or "GCT2").
Result<TableManifest> ReadTableManifest(const std::string& dir);

/// Removes files in `dir` that a crashed or superseded table write left
/// behind: `*.tmp` files and `*.gcl`/`*.gcz` files not referenced by
/// `keep`. Best effort — failures are ignored.
void CleanStaleTableFiles(const std::string& dir, const TableManifest& keep);

/// Persists a whole table into directory `dir` crash-safely:
/// `<dir>/schema.gct` manifest + `<dir>/<col>.gN.gcl` per column. After a
/// crash at any injected failure point, ReadTableDir returns either the
/// previous table or the new one — never an error, never mixed data.
/// With a `pool` the column files are written concurrently; the manifest
/// is written only after every one of them has committed, and if any
/// failed there is no manifest and the first error in column order is
/// returned. A null pool writes them one after another on the caller, and
/// stops at the first failure. The files are byte-identical either way.
Status WriteTableDir(const FlatTable& table, const std::string& dir,
                     ThreadPool* pool = nullptr);

/// Loads a table persisted by WriteTableDir.
Result<FlatTable> ReadTableDir(const std::string& dir,
                               bool verify_checksums = true);

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_COLUMN_FILE_H_
