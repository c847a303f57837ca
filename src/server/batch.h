// Shared-scan batching (DESIGN.md §16): concurrently queued viewport
// queries against the same pinned point-cloud view are answered with ONE
// superset imprint scan over the union of their boxes, then each member's
// exact
// selection is re-derived from the candidate rows with the same
// native-clamped range compares the solo path uses — so every member's
// row set (and therefore its result bytes) is identical to running the
// query alone. N queued scans collapse into one scan plus N cheap
// re-filters over the candidates.
#ifndef GEOCOL_SERVER_BATCH_H_
#define GEOCOL_SERVER_BATCH_H_

#include <cstdint>
#include <vector>

#include "core/shard_router.h"
#include "server/admission.h"
#include "sql/planner.h"

namespace geocol {
namespace server {

/// True when `plan` may join a shared-scan batch group: a plain
/// point-cloud statement (any shard count) whose selection is a query box
/// plus thematic ranges (the planner folds x/y ranges into that box).
/// Excluded: NEAR joins, buffered geometries and non-box shapes
/// (refinement is not a range conjunction), and EXPLAIN [ANALYZE]
/// (answers describe execution, not data).
bool BatchablePlan(const sql::PlannedQuery& plan);

/// Output of one shared scan over a batch group.
struct SharedScanResult {
  /// Parallel to the input group: each member's ascending qualifying
  /// global row ids, bit-identical to what `view.Select` would have
  /// returned for that member alone.
  std::vector<std::vector<uint64_t>> member_rows;
  /// The shared work, as spans every member's profile/flight event
  /// inherits: server.batch.scan (superset scan + column gather) and
  /// server.batch.fanout (per-member re-filters).
  QueryProfile profile;
};

/// Runs the superset scan for `group` (every task batchable and pinned to
/// `view`) and fans exact per-member selections out. On any error the
/// caller re-executes each member solo — the error path is never guessed
/// at, it is reproduced.
Result<SharedScanResult> SharedScanSelect(const ShardsView& view,
                                          const std::vector<TaskPtr>& group);

}  // namespace server
}  // namespace geocol

#endif  // GEOCOL_SERVER_BATCH_H_
