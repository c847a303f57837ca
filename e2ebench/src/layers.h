// In-process side of the benchmark: the oracle (expected result digests
// from a single-threaded sql::Session over the same table) and the traced
// phase, which times the public function of each layer from outside the
// program and checks that the timed composition returns what the engine
// returns.
#ifndef E2EBENCH_LAYERS_H_
#define E2EBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gis/catalog.h"
#include "util/status.h"
#include "workloads.h"

namespace e2ebench {

/// Opens `table_dir` as dataset "ahn2" plus every .layer file under
/// `layers_dir`, the way `geocol serve` does (no result cache). The
/// engine runs on `num_threads` threads (0 = one per core, as the server).
geocol::Status OpenCatalog(const std::string& table_dir,
                           const std::string& layers_dir, uint32_t num_threads,
                           geocol::Catalog* catalog);

/// Fills `Statement::expected` for every statement, executing each
/// distinct SQL text once; `threads` sessions, each used from one thread,
/// share the work. Any
/// statement the oracle cannot execute is an error: the workloads are
/// built so that no operation fails.
geocol::Status ComputeOracle(geocol::Catalog* catalog, int threads,
                             std::vector<Statement>* statements);

/// Per-layer figures of the traced phase, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Replays `sample` (already answered by the server with client latencies
/// `client_ms`) in process through the layer functions and adds the
/// per-layer metrics to `out`. Every statement runs once untimed first, so
/// lazy index builds stay out of the figures. Fails when a composed result differs from
/// the engine's (the self-check of the traced composition).
geocol::Status TraceLayers(geocol::Catalog* catalog,
                           const std::vector<Statement>& sample,
                           const std::vector<double>& client_ms,
                           LayerMetrics* out);

/// Times a cold x+y imprint build and reports the index/column byte
/// ratio of the two coordinate columns.
geocol::Status TraceImprintBuild(geocol::Catalog* catalog, LayerMetrics* out);

/// Times BinaryLoader::LoadDirectory over `tiles_dir` and WriteTableDir of
/// the result into `scratch_dir`.
geocol::Status TraceLoadAndWrite(const std::string& tiles_dir,
                                 const std::string& scratch_dir,
                                 LayerMetrics* out);

}  // namespace e2ebench

#endif  // E2EBENCH_LAYERS_H_
