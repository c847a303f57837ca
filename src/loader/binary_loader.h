// The paper's binary bulk loader (§3.2): "The loader takes as input a
// LAS/LAZ file and for each property it generates a new file that is the
// binary dump of a C-array containing the values of the property for all
// points. Then, the generated files are appended to each column of the
// flat table using the bulk loading operator COPY BINARY."
//
// MonetDB needs those files only because its loader and its kernel are
// separate processes. Here both live in one process, so each tile's
// per-attribute C-arrays are appended to the columns straight from memory:
// loading stays a copy, not a parse, with no file in between.
#ifndef GEOCOL_LOADER_BINARY_LOADER_H_
#define GEOCOL_LOADER_BINARY_LOADER_H_

#include <memory>
#include <string>

#include "columns/flat_table.h"
#include "las/las_format.h"
#include "util/status.h"

namespace geocol {

class ThreadPool;

/// Accounting of one load run (drives E1).
struct LoadStats {
  uint64_t files = 0;
  uint64_t points = 0;
  /// Tile reads, header reads and LAZ decompression, summed over tiles.
  /// Tiles decoded on a pool overlap, so this may exceed wall_seconds.
  double read_seconds = 0.0;
  /// Records -> per-attribute arrays (binary) or CSV text, summed over
  /// tiles like read_seconds.
  double convert_seconds = 0.0;
  /// Per-attribute arrays / CSV parse into the table's columns (wall).
  double append_seconds = 0.0;
  /// The whole load, start to finish.
  double wall_seconds = 0.0;
  uint64_t bytes_read = 0;

  double TotalSeconds() const { return wall_seconds; }
  double PointsPerSecond() const {
    double t = TotalSeconds();
    return t > 0 ? points / t : 0.0;
  }
};

/// Binary bulk loader for LAS/LAZ tile directories.
class BinaryLoader {
 public:
  /// The scratch directory is unused: the per-attribute arrays never
  /// pass through files. The parameter stays so existing callers compile
  /// unchanged.
  explicit BinaryLoader(const std::string& /*scratch_dir*/) {}

  /// Loads every .las/.laz file under `dir` into a fresh flat table with
  /// the LAS point schema, rows in ListFiles order. Tiles are decoded in
  /// waves of at most 2 x the pool's threads, each tile into its own
  /// staging table on `pool`; a wave is then appended column by column
  /// (the 26 columns in parallel) and its staging tables are freed, so
  /// peak memory is the table plus a few tiles. Each column is reserved
  /// once from the sum of the (size-checked) header counts. A null `pool`
  /// runs everything serially on the caller; the table is byte-identical
  /// either way.
  Result<std::shared_ptr<FlatTable>> LoadDirectory(const std::string& dir,
                                                   LoadStats* stats = nullptr,
                                                   ThreadPool* pool = nullptr);
};

}  // namespace geocol

#endif  // GEOCOL_LOADER_BINARY_LOADER_H_
