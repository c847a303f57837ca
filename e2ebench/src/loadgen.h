// Load generators driving a running `geocol serve` through the product
// client (server::Client). Every reply is checked against the statement's
// oracle digest; a transport error, a typed refusal (BUSY, ...) or a wrong
// digest is a failure.
#ifndef E2EBENCH_LOADGEN_H_
#define E2EBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace e2ebench {

/// Outcome counts of one phase.
struct Tally {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_failures;  ///< up to a few messages

  void Add(const Tally& o);
};

/// Result of a closed-loop phase.
struct ClosedLoopResult {
  Tally tally;
  std::vector<double> latencies_ms;  ///< successful operations, from send
  /// When each of those operations completed, in the same order.
  std::vector<std::chrono::steady_clock::time_point> done;
  double elapsed_s = 0.0;
  bool pool_exhausted = false;
};

/// `connections` clients each send their next statement as soon as the
/// previous reply arrived, drawing statements in order from `pool`
/// starting at `*next`, until `seconds` pass or the pool runs out. `*next`
/// advances past every statement sent.
ClosedLoopResult RunClosedLoop(int port, const std::vector<Statement>& pool,
                               size_t* next, int connections, double seconds);

/// Sends `statements` one at a time on one connection; per-statement
/// client latency (ms, 0 on failure) goes to `latencies_ms` when non-null.
Tally RunSequential(int port, const std::vector<Statement>& statements,
                    std::vector<double>* latencies_ms);

/// Connects (retrying for up to `retry_s`) and sends one statement; the
/// reply's digest goes to `digest`, the caller checks it.
bool ProbeOnce(int port, const std::string& sql, double retry_s,
               uint32_t* digest, std::string* error);

/// q-quantile (0..1) of `v` by linear interpolation (v is copied).
double Quantile(std::vector<double> v, double q);

}  // namespace e2ebench

#endif  // E2EBENCH_LOADGEN_H_
