// The benchmark's traffic: seeded statement streams for each workload.
// The program under test only ever sees the generated SQL text.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "geom/geometry.h"

namespace e2ebench {

enum class Workload { kViewportHot, kLadder, kNearTransit };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// One statement plus the digest the oracle expects for it.
struct Statement {
  std::string sql;
  uint32_t expected = 0;
};

/// Deterministic, infinite statement stream of one workload. Two streams
/// built from the same (workload, extent, seed) yield the same sequence.
class StatementStream {
 public:
  /// `fresh_only` leaves out the repeated popular viewports of
  /// viewport_hot (the traced replay must reach the engine, not the
  /// server's result cache).
  StatementStream(Workload w, const geocol::Box& extent, uint64_t seed,
                  bool fresh_only = false);

  std::string Next();

 private:
  std::string NextViewport();
  std::string NextLadder();
  std::string NextNearTransit();
  /// SELECT list + WHERE clause for a viewport shape over `where`.
  static std::string ViewportShape(int shape, const std::string& where);

  Workload workload_;
  geocol::Box extent_;
  bool fresh_only_;
  std::mt19937_64 rng_;
  std::vector<std::string> popular_;  ///< viewport_hot's repeated statements
  std::vector<int> ladder_deck_;      ///< ladder's remaining size classes
  std::vector<int> near_deck_;        ///< near_transit: 0 deals a NEAR join
  std::vector<int> near_d_deck_;      ///< near_transit: NEAR distance strata
};

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
