// Disk persistence for column imprints. MonetDB keeps imprints alongside
// the BAT heaps so a restarted server does not pay the rebuild; we mirror
// that with a compact sidecar file per column:
//   magic "GIM2" | column fingerprint u32 | epoch | rows |
//   values_per_line | num_bins | bounds[num_bins] | dict entries |
//   vectors | crc32c footer.
//
// The sidecar is pure cache: it is written atomically, verified against
// its CRC32C footer and against the live column on load (SidecarFresh:
// payload fingerprint and row count), and a corrupt or stale file is
// quarantined and rebuilt — never trusted, never fatal to the query. The
// fingerprint ties the sidecar to the column's actual bytes, so two
// engines sharing an imprints dir can never adopt an index built for a
// same-named, same-sized column of a different table. The stored epoch is
// informational only: epochs count mutations inside one process, so the
// loader's sidecars (`geocol load`) would otherwise never match a
// server's freshly read column. Legacy "GIM1" files (no footer, no
// fingerprint) still parse via ReadImprintsFile but are rebuilt by
// LoadOrBuildImprints.
#ifndef GEOCOL_CORE_IMPRINTS_IO_H_
#define GEOCOL_CORE_IMPRINTS_IO_H_

#include <string>
#include <vector>

#include "columns/flat_table.h"
#include "core/imprints.h"
#include "util/status.h"

namespace geocol {

class ThreadPool;

/// CRC32C over the column's type byte and raw payload — the identity that
/// ties a sidecar to the exact column bytes it was built from.
uint32_t ColumnFingerprint(const Column& column);

/// File-level sidecar metadata that is not part of the index itself.
struct ImprintsFileMeta {
  bool has_fingerprint = false;  ///< false for legacy GIM1 sidecars
  uint32_t column_fingerprint = 0;
};

/// `<dir>/<column name>.gim`: where a column's sidecar lives.
std::string ImprintsSidecarPath(const std::string& dir,
                                const std::string& column_name);

/// The one sidecar freshness rule: the sidecar was built from exactly the
/// bytes of a column whose fingerprint is `column_fingerprint` (type +
/// payload) and covers `column_rows` rows. Epochs are not compared — the
/// fingerprint already pins the bytes, and epochs are per process.
bool SidecarFresh(const ImprintsFileMeta& meta, const ImprintsIndex& index,
                  uint32_t column_fingerprint, uint64_t column_rows);

/// Writes `index` to `path` atomically with a CRC32C footer, stamped with
/// `column_fingerprint` (pass `ColumnFingerprint(column)`).
Status WriteImprintsFile(const ImprintsIndex& index, const std::string& path,
                         uint32_t column_fingerprint = 0);

/// Reads and checksum-verifies an imprints file. The caller is responsible
/// for checking `built_epoch()` and the fingerprint in `meta` against the
/// live column before trusting the index.
Result<ImprintsIndex> ReadImprintsFile(const std::string& path,
                                       ImprintsFileMeta* meta = nullptr);

/// Builds the imprints of `table`'s `columns` with the default options an
/// engine uses (on `pool` when given) and writes each to
/// ImprintsSidecarPath(dir, name), stamped with the column's fingerprint.
/// `geocol load` does this for x and y right after persisting the table,
/// so the first process that opens it adopts the indexes instead of
/// building them.
Status WriteImprintsSidecars(const FlatTable& table,
                             const std::vector<std::string>& columns,
                             const std::string& dir,
                             ThreadPool* pool = nullptr);

/// Loads the sidecar if it exists, verifies it and checks SidecarFresh,
/// else builds fresh (on `pool` when given) and rewrites the sidecar. An
/// adopted index takes the live column's epoch. `*adopted` (when given)
/// tells the two apart. Degradation is graceful and logged:
///   - corrupt/unreadable sidecar -> quarantined to `path + ".quarantined"`
///     and rebuilt;
///   - stale sidecar (fingerprint or row-count mismatch, or a legacy GIM1
///     file with no fingerprint) -> rebuilt, overwritten;
///   - failure to persist the rebuilt sidecar -> logged, the fresh index
///     is still returned.
/// The only error path is the build itself failing.
Result<ImprintsIndex> LoadOrBuildImprints(const Column& column,
                                          const std::string& path,
                                          const ImprintsOptions& options = {},
                                          ThreadPool* pool = nullptr,
                                          bool* adopted = nullptr);

}  // namespace geocol

#endif  // GEOCOL_CORE_IMPRINTS_IO_H_
