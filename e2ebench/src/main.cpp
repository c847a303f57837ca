// e2ebench: end-to-end serving benchmark of `geocol serve`.
//
//   e2ebench --workload <viewport_hot|ladder|near_transit> --seed N
//            --seconds S --trace 0|1 --geocol <path to geocol>
//            --work <scratch dir> [--commit <id>]
//
// One run: generate the survey with `geocol generate --layers`, then
//   1. setup   (x3): `geocol load`, spawn `geocol serve`, first answer
//   2. oracle      : expected digest of every statement, in process
//   3. restart     : spawn `geocol serve` on a fresh copy of the loaded
//                    table until the first answer; this one stays up
//   4. measure     : the workload's closed loop for S seconds, in 5
//                    windows with further restarts between them, cut
//                    into slices whose steal share is sampled
//   5. trace (opt) : replay a sample through the client on the idle
//                    server, drain it, then time each layer's public
//                    function in process on the same statements
// The last stdout line is the JSON result; with --trace 0 it carries the
// end-to-end metrics, with --trace 1 the per-layer metrics.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "loadgen.h"
#include "process.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace e2ebench;

namespace {

using Clock = std::chrono::steady_clock;

// Survey size passed to `geocol generate`; the generator places it on a
// square of side sqrt(points / 8) m at AHN2 density, starting at
// (85000, 444000).
constexpr uint64_t kSurveyPoints = 2000000;
constexpr int kSetupReps = 3;
// Closed-loop windows of the measured phase. kGapRestarts restart
// repetitions run between each two, one more before the first, so
// restart_s is taken from 1 + (kWindows - 1) * kGapRestarts repetitions.
constexpr int kWindows = 5;
constexpr int kGapRestarts = 2;
// The hypervisor takes CPU time from this machine in bursts (the `steal`
// field of /proc/stat), and a request that meets one waits it out: a few
// percent of steal doubles p99. So every timed quantity comes from the
// least-stolen part of its repetitions. The measured phase is cut into
// slices of kSliceS, and the slices, setups and restarts whose steal
// share exceeds the median of their kind are left out. On a quiet host
// all steal shares are 0 and nothing is left out.
constexpr double kSliceS = 0.25;
constexpr int kServerWorkers = 2;
constexpr int kOracleThreads = 4;
constexpr int kWarmupStatements = 24;
constexpr int kTraceSample = 48;

struct Args {
  Workload workload = Workload::kViewportHot;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string geocol;
  std::string work;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_geocol = false, have_work = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      have_workload = ParseWorkload(v, &a->workload);
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--geocol") {
      a->geocol = v;
      have_geocol = true;
    } else if (k == "--work") {
      a->work = v;
      have_work = true;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_geocol && have_work;
}

/// The survey extent `geocol generate` lays out for kSurveyPoints. The
/// statements depend on it and the seed only, never on the loaded table.
geocol::Box SurveyExtent() {
  const double side = std::sqrt(static_cast<double>(kSurveyPoints) / 8.0);
  return geocol::Box(85000, 444000, 85000 + side, 444000 + side);
}

/// Closed-loop goodput the statement pool is sized for (4 cores, 2 server
/// workers).
double ExpectedQps(Workload w) {
  switch (w) {
    case Workload::kViewportHot: return 1600.0;
    case Workload::kLadder: return 800.0;
    case Workload::kNearTransit: return 300.0;
  }
  return 0.0;
}

std::vector<Statement> Draw(StatementStream* stream, size_t n) {
  std::vector<Statement> out(n);
  for (Statement& s : out) s.sql = stream->Next();
  return out;
}

/// Bytes of every file under `dir` except the flight log directory.
uint64_t TableBytes(const std::string& dir) {
  uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && it->path().filename() == "flight") {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file()) total += it->file_size();
  }
  return total;
}

/// Copies a loaded table without its flight log, so no run inherits the
/// workload history (or anything else a server left) of another.
void CopyTable(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const auto& e : fs::directory_iterator(from)) {
    if (e.path().filename() == "flight") continue;
    fs::copy(e.path(), to / e.path().filename(), fs::copy_options::recursive);
  }
}

/// A running `geocol serve`.
struct Serve {
  std::unique_ptr<Child> child;
  int port = 0;
};

bool SpawnServe(const Args& args, const std::string& table,
                const std::string& layers, Serve* out) {
  out->child = std::make_unique<Child>(std::vector<std::string>{
      args.geocol, "serve", table, "--workers",
      std::to_string(kServerWorkers), "--layers", layers});
  if (!out->child->started()) return false;
  std::string line = out->child->WaitForLine("listening on", 120.0);
  size_t colon = line.rfind(':');
  if (colon == std::string::npos) return false;
  out->port = std::atoi(line.c_str() + colon + 1);
  return out->port > 0;
}

/// Counts from the summary `geocol serve` prints when drained.
struct DrainSummary {
  bool parsed = false;
  unsigned long long conns = 0, ok = 0, errors = 0, busy = 0, limited = 0,
                     batches = 0, members = 0, hits = 0, misses = 0;
};

DrainSummary ParseDrain(const std::string& out) {
  DrainSummary d;
  size_t p = out.find("geocol serve: stopped (");
  size_t q = out.find("geocol serve: result cache ");
  if (p == std::string::npos || q == std::string::npos) return d;
  int n1 = std::sscanf(out.c_str() + p,
                       "geocol serve: stopped (conns %llu, ok %llu, errors "
                       "%llu, busy %llu, rate-limited %llu, batches %llu "
                       "covering %llu queries)",
                       &d.conns, &d.ok, &d.errors, &d.busy, &d.limited,
                       &d.batches, &d.members);
  int n2 = std::sscanf(out.c_str() + q,
                       "geocol serve: result cache %llu hit(s) / %llu miss",
                       &d.hits, &d.misses);
  d.parsed = n1 == 7 && n2 == 2;
  return d;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

/// Jiffies the hypervisor took from this machine's CPUs so far (the
/// `steal` field of /proc/stat), and all jiffies (user through steal;
/// guest time is already part of user).
void CpuJiffies(uint64_t* steal, uint64_t* total) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  *steal = *total = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    *total += v;
    if (i == 7) *steal = v;
  }
}

/// Steal share (stolen ÷ all jiffies) between two CpuJiffies readings.
double StealShare(uint64_t steal0, uint64_t total0, uint64_t steal1,
                  uint64_t total1) {
  return total1 > total0 ? static_cast<double>(steal1 - steal0) /
                               static_cast<double>(total1 - total0)
                         : 0.0;
}

/// Times an interval and the steal share of the machine during it.
class StealClock {
 public:
  StealClock() : start_(Clock::now()) { CpuJiffies(&steal_, &total_); }
  /// Seconds since construction.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  /// Steal share since construction.
  double Steal() const {
    uint64_t steal = 0, total = 0;
    CpuJiffies(&steal, &total);
    return StealShare(steal_, total_, steal, total);
  }

 private:
  Clock::time_point start_;
  uint64_t steal_ = 0, total_ = 0;
};

/// Indices of the entries of `steal` that do not exceed their median.
std::vector<size_t> Quiet(const std::vector<double>& steal) {
  const double limit = Quantile(steal, 0.5);
  std::vector<size_t> out;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= limit) out.push_back(i);
  }
  return out;
}

/// Median of the repetitions in `values` whose steal share does not
/// exceed the median one.
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  std::vector<double> kept;
  for (size_t i : Quiet(steal)) kept.push_back(values[i]);
  return Quantile(kept, 0.5);
}

/// One slice of a closed-loop window: its length, the steal share during
/// it and the latencies of the operations that completed in it.
struct Slice {
  Clock::time_point begin;
  double seconds = 0;
  double steal = 0;
  std::vector<double> latencies_ms;
};

/// Cuts the time from construction to Stop() into slices of `period_s`,
/// reading the steal counter at each boundary on a thread of its own.
class SliceSampler {
 public:
  explicit SliceSampler(double period_s)
      : period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(period_s))) {
    std::lock_guard<std::mutex> lock(mu_);
    Read();
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      for (auto next = readings_[0].at + period_;
           !cv_.wait_until(lock, next, [this] { return stop_; }); next += period_) {
        Read();
      }
    });
  }
  ~SliceSampler() { Join(); }

  /// Ends the last slice and returns all of them. A last slice shorter
  /// than half a period is merged into the one before.
  std::vector<Slice> Stop() {
    Join();
    Read();
    if (readings_.size() > 2 &&
        readings_.back().at - readings_[readings_.size() - 2].at < period_ / 2) {
      readings_.erase(readings_.end() - 2);
    }
    std::vector<Slice> out;
    for (size_t i = 1; i < readings_.size(); ++i) {
      const Reading& a = readings_[i - 1];
      const Reading& b = readings_[i];
      out.push_back(Slice{a.at, std::chrono::duration<double>(b.at - a.at).count(),
                          StealShare(a.steal, a.total, b.steal, b.total), {}});
    }
    return out;
  }

 private:
  struct Reading {
    Clock::time_point at;
    uint64_t steal = 0, total = 0;
  };
  void Read() {
    Reading r{Clock::now()};
    CpuJiffies(&r.steal, &r.total);
    readings_.push_back(r);
  }
  void Join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  const Clock::duration period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;              // guarded by mu_
  std::vector<Reading> readings_;  // guarded by mu_ while the thread runs
  std::thread thread_;
};

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) >= 0x20) {
      o += ch;
    }
  }
  return o;
}

/// Metrics as (name, value, unit), printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", items_[i].name.c_str(),
                    std::isfinite(items_[i].value) ? items_[i].value : 0.0,
                    items_[i].unit.c_str());
      s += buf;
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

class Run {
 public:
  explicit Run(const Args& args) : args_(args) {}

  /// Executes the phases; returns the process exit code after printing
  /// the result line (or 1 without one when the run could not complete).
  int Execute();

 private:
  bool Fail(const std::string& why) {
    std::fprintf(stderr, "e2ebench: %s\n", why.c_str());
    return false;
  }
  bool Generate();
  bool Setups();
  bool BuildOracle();
  bool Restart(bool keep);
  bool Measure();
  bool TraceReplayAndDrain();
  bool TraceInProcess();
  /// Spawns `geocol serve` on `table` and sends the probe statement; the
  /// reply's digest goes to `digest`.
  bool ServeAndProbe(const std::string& table, Serve* s, uint32_t* digest);
  /// Counts probe replies against the oracle's digest.
  void CheckProbes(const std::vector<uint32_t>& digests, const char* phase);
  void Check(const Tally& t, const char* phase);
  int Report();

  const Args& args_;
  ScratchDir scratch_;
  std::string tiles_, layers_, base_table_, served_table_;
  geocol::Box extent_ = SurveyExtent();

  Statement probe_;
  std::vector<uint32_t> setup_digests_;
  std::vector<double> setup_s_, restart_s_;
  std::vector<double> setup_steal_, restart_steal_;  ///< steal share of each
  std::vector<Statement> warmup_, pool_, sample_;
  geocol::Catalog oracle_;
  Serve serve_;

  Tally total_;
  bool correct_ = true;
  double ops_s_ = 0, p50_ = 0, p99_ = 0, peak_rss_mb_ = 0,
         disk_per_point_ = 0;
  double steal_share_ = 0;  ///< CPU time the hypervisor took while measuring
  uint64_t points_ = 0;
  std::vector<double> sample_client_ms_;
  DrainSummary drain_;
  uint64_t flight_bytes_ = 0;
  LayerMetrics layers_metrics_;
};

bool Run::ServeAndProbe(const std::string& table, Serve* s, uint32_t* digest) {
  if (!SpawnServe(args_, table, layers_, s)) return Fail("geocol serve did not start");
  std::string error;
  if (!ProbeOnce(s->port, probe_.sql, 10.0, digest, &error)) {
    return Fail("first query failed: " + error);
  }
  return true;
}

void Run::CheckProbes(const std::vector<uint32_t>& digests, const char* phase) {
  Tally t;
  for (uint32_t d : digests) {
    ++t.attempted;
    if (d == probe_.expected) {
      ++t.succeeded;
    } else {
      ++t.failed;
      t.first_failures.push_back(std::string(phase) + " probe digest differs: " +
                                 probe_.sql);
    }
  }
  Check(t, phase);
}

void Run::Check(const Tally& t, const char* phase) {
  total_.Add(t);
  if (t.failed > 0) {
    correct_ = false;
    std::fprintf(stderr, "e2ebench: %llu of %llu requests failed in %s\n",
                 static_cast<unsigned long long>(t.failed),
                 static_cast<unsigned long long>(t.attempted), phase);
    for (const std::string& f : t.first_failures) {
      std::fprintf(stderr, "  %s\n", f.c_str());
    }
  }
}

bool Run::Generate() {
  tiles_ = scratch_.path + "/tiles";
  layers_ = scratch_.path + "/layers";
  int rc = RunToCompletion({args_.geocol, "generate", tiles_, "--points",
                            std::to_string(kSurveyPoints), "--layers", layers_},
                           120.0);
  if (rc != 0) return Fail("geocol generate failed (exit " + std::to_string(rc) + ")");
  return true;
}

// setup_s: generated tiles -> `geocol load` -> spawn `geocol serve` ->
// first answer. The reply's digest is verified once the oracle exists.
bool Run::Setups() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string table = scratch_.path + "/setup" + std::to_string(rep);
    sync();  // earlier writes must not be flushed on this rep's clock
    const StealClock clock;
    int rc = RunToCompletion({args_.geocol, "load", tiles_, table}, 120.0);
    if (rc != 0) return Fail("geocol load failed (exit " + std::to_string(rc) + ")");
    Serve s;
    uint32_t digest = 0;
    if (!ServeAndProbe(table, &s, &digest)) return false;
    setup_s_.push_back(clock.Seconds());
    setup_steal_.push_back(clock.Steal());
    std::fprintf(stderr, "setup %d: %.4f s, steal %.4f\n", rep, setup_s_.back(),
                 setup_steal_.back());
    setup_digests_.push_back(digest);
    if (s.child->Interrupt(30.0) != 0) return Fail("geocol serve did not drain cleanly");
    if (rep == 0) {
      base_table_ = table;
    } else {
      fs::remove_all(table);
    }
  }
  return true;
}

bool Run::BuildOracle() {
  // The oracle runs the serial executor; the server runs the parallel one,
  // whose results the engine contract makes bit-identical.
  if (geocol::Status st = OpenCatalog(base_table_, layers_, 1, &oracle_); !st.ok()) {
    return Fail("oracle: " + st.ToString());
  }
  // Distinct streams for each purpose, all derived from the seed.
  StatementStream warm(args_.workload, extent_, args_.seed * 4 + 1);
  StatementStream main_stream(args_.workload, extent_, args_.seed * 4 + 2);
  StatementStream trace(args_.workload, extent_, args_.seed * 4 + 3,
                        /*fresh_only=*/true);
  warmup_ = Draw(&warm, kWarmupStatements);
  sample_ = Draw(&trace, kTraceSample);
  // Enough statements for well above the expected rate; a run that
  // exhausts the pool ends early rather than repeating statements.
  const double expected_qps = ExpectedQps(args_.workload);
  pool_ = Draw(&main_stream,
               static_cast<size_t>(expected_qps * args_.seconds * 1.3));
  std::vector<Statement> all = warmup_;
  all.push_back(probe_);
  all.insert(all.end(), sample_.begin(), sample_.end());
  all.insert(all.end(), pool_.begin(), pool_.end());
  if (geocol::Status st = ComputeOracle(&oracle_, kOracleThreads, &all); !st.ok()) {
    return Fail(st.ToString());
  }
  size_t k = 0;
  for (Statement& s : warmup_) s.expected = all[k++].expected;
  probe_.expected = all[k++].expected;
  for (Statement& s : sample_) s.expected = all[k++].expected;
  for (Statement& s : pool_) s.expected = all[k++].expected;

  CheckProbes(setup_digests_, "setup");
  auto pc = oracle_.GetEngine("ahn2");
  if (!pc.ok()) return Fail(pc.status().ToString());
  points_ = (*pc)->table().num_rows();
  return true;
}

// One restart_s repetition: spawn `geocol serve` on a fresh copy of the
// loaded table until the first correct answer. `keep` leaves the server
// up as the measured one.
bool Run::Restart(bool keep) {
  const std::string table =
      scratch_.path + "/served" + std::to_string(restart_s_.size());
  CopyTable(base_table_, table);
  sync();  // the copy's writeback must not land on this rep's clock
  Serve s;
  const StealClock clock;
  uint32_t digest = 0;
  if (!ServeAndProbe(table, &s, &digest)) return false;
  restart_s_.push_back(clock.Seconds());
  restart_steal_.push_back(clock.Steal());
  std::fprintf(stderr, "restart %zu: %.4f s, steal %.4f\n", restart_s_.size() - 1,
               restart_s_.back(), restart_steal_.back());
  CheckProbes({digest}, "restart");
  if (keep) {
    serve_ = std::move(s);
    served_table_ = table;
    return true;
  }
  if (s.child->Interrupt(30.0) != 0) return Fail("geocol serve did not drain cleanly");
  fs::remove_all(table);
  return true;
}

// The measured phase runs as kWindows closed-loop windows with restart
// repetitions between each two, cut into slices of kSliceS. The
// end-to-end figures come from the slices the hypervisor stole least from.
bool Run::Measure() {
  Check(RunSequential(serve_.port, warmup_, nullptr), "warm-up");
  const int conns = args_.workload == Workload::kNearTransit ? 2 : 4;
  size_t next = 0;
  std::vector<Slice> slices;
  double measured_s = 0;
  for (int w = 0; w < kWindows; ++w) {
    for (int i = 0; w > 0 && i < kGapRestarts; ++i) {
      if (!Restart(/*keep=*/false)) return false;
    }
    SliceSampler sampler(kSliceS);
    ClosedLoopResult r =
        RunClosedLoop(serve_.port, pool_, &next, conns, args_.seconds / kWindows);
    std::vector<Slice> window = sampler.Stop();
    Check(r.tally, "closed loop");
    for (size_t i = 0; i < r.done.size(); ++i) {
      auto it = std::upper_bound(window.begin(), window.end(), r.done[i],
                                 [](Clock::time_point t, const Slice& sl) {
                                   return t < sl.begin;
                                 });
      if (it != window.begin()) (it - 1)->latencies_ms.push_back(r.latencies_ms[i]);
    }
    double window_s = 0, window_steal = 0;
    for (const Slice& sl : window) {
      window_s += sl.seconds;
      window_steal += sl.steal * sl.seconds;
    }
    measured_s += window_s;
    steal_share_ += window_steal;
    std::fprintf(stderr,
                 "window %d: %zu ok in %.2f s, p50 %.3f ms, p99 %.3f ms, steal %.4f\n",
                 w, r.latencies_ms.size(), r.elapsed_s, Quantile(r.latencies_ms, 0.5),
                 Quantile(r.latencies_ms, 0.99), window_steal / std::max(window_s, 1e-9));
    slices.insert(slices.end(), std::make_move_iterator(window.begin()),
                  std::make_move_iterator(window.end()));
    if (r.pool_exhausted) {
      std::fprintf(stderr, "e2ebench: statement pool exhausted in window %d\n", w);
      break;
    }
  }
  steal_share_ /= std::max(measured_s, 1e-9);
  std::vector<double> steal;
  for (const Slice& sl : slices) steal.push_back(sl.steal);
  std::vector<double> latencies;
  double quiet_s = 0, quiet_steal = 0;
  for (size_t i : Quiet(steal)) {
    latencies.insert(latencies.end(), slices[i].latencies_ms.begin(),
                     slices[i].latencies_ms.end());
    quiet_s += slices[i].seconds;
    quiet_steal += slices[i].steal * slices[i].seconds;
  }
  ops_s_ = static_cast<double>(latencies.size()) / std::max(quiet_s, 1e-9);
  p50_ = Quantile(latencies, 0.5);
  p99_ = Quantile(latencies, 0.99);
  std::fprintf(stderr,
               "closed loop (%d connections): steal %.4f over %zu slices; "
               "kept %.1f of %.1f s at steal %.4f, %zu samples\n",
               conns, steal_share_, slices.size(), quiet_s, measured_s,
               quiet_steal / std::max(quiet_s, 1e-9), latencies.size());
  peak_rss_mb_ = serve_.child->PeakRssMb();
  return true;
}

bool Run::TraceReplayAndDrain() {
  if (args_.trace) {
    Check(RunSequential(serve_.port, sample_, &sample_client_ms_), "trace replay");
  }
  const int code = serve_.child->Interrupt(30.0);
  drain_ = ParseDrain(serve_.child->Output());
  if (code != 0) return Fail("geocol serve did not drain cleanly");
  if (!drain_.parsed) return Fail("no drain summary from geocol serve");
  const std::string flight = served_table_ + "/flight/flight.gfr";
  std::error_code ec;
  flight_bytes_ = fs::exists(flight, ec) ? fs::file_size(flight, ec) : 0;
  disk_per_point_ = static_cast<double>(TableBytes(served_table_)) /
                    static_cast<double>(points_);
  return true;
}

bool Run::TraceInProcess() {
  // The traced phase runs the engine as the server configures it.
  geocol::Catalog catalog;
  geocol::Status st = OpenCatalog(base_table_, layers_, 0, &catalog);
  if (st.ok()) st = TraceLayers(&catalog, sample_, sample_client_ms_, &layers_metrics_);
  if (st.ok()) st = TraceImprintBuild(&catalog, &layers_metrics_);
  if (st.ok()) st = TraceLoadAndWrite(tiles_, scratch_.path + "/trace_load", &layers_metrics_);
  if (!st.ok()) {
    correct_ = false;
    return Fail("traced phase: " + st.ToString());
  }
  return true;
}

int Run::Report() {
  Metrics m;
  if (!args_.trace) {
    m.Set("setup_s", QuietMedian(setup_s_, setup_steal_), "s");
    m.Set("restart_s", QuietMedian(restart_s_, restart_steal_), "s");
    m.Set("ops_s", ops_s_, "op/s");
    m.Set("p50_ms", p50_, "ms");
    m.Set("p99_ms", p99_, "ms");
    m.Set("peak_rss_mb", peak_rss_mb_, "MB");
    m.Set("disk_bytes_per_point", disk_per_point_, "B");
  } else {
    const double ok = static_cast<double>(std::max<unsigned long long>(drain_.ok, 1));
    const LayerMetrics& l = layers_metrics_;
    auto get = [&](const char* k) {
      auto it = l.find(k);
      return it == l.end() ? 0.0 : it->second;
    };
    m.Set("server.overhead_ms", get("server.overhead_ms"), "ms");
    m.Set("server.batched_share", static_cast<double>(drain_.members) / ok, "ratio");
    m.Set("server.batch_size",
          drain_.batches > 0 ? static_cast<double>(drain_.members) / drain_.batches : 0.0,
          "count");
    m.Set("server.shed_busy", static_cast<double>(drain_.busy), "count");
    m.Set("server.protocol.encode_us", get("server.protocol.encode_us"), "us");
    m.Set("server.protocol.decode_us", get("server.protocol.decode_us"), "us");
    m.Set("server.reply_bytes", get("server.reply_bytes"), "B");
    m.Set("sql.parse_us", get("sql.parse_us"), "us");
    m.Set("sql.plan_us", get("sql.plan_us"), "us");
    m.Set("sql.execute_ms", get("sql.execute_ms"), "ms");
    m.Set("core.imprints.build_ms", get("core.imprints.build_ms"), "ms");
    m.Set("core.imprints.filter_ms", get("core.imprints.filter_ms"), "ms");
    m.Set("core.imprints.and_ms", get("core.imprints.and_ms"), "ms");
    m.Set("core.imprints.lines_touched", get("core.imprints.lines_touched"), "ratio");
    m.Set("core.imprints.false_positive", get("core.imprints.false_positive"), "ratio");
    m.Set("core.imprints.storage_ratio", get("core.imprints.storage_ratio"), "ratio");
    m.Set("core.refine.grid_ms", get("core.refine.grid_ms"), "ms");
    m.Set("core.refine.accept_ratio", get("core.refine.accept_ratio"), "ratio");
    m.Set("core.refine.exact_tests", get("core.refine.exact_tests"), "count");
    m.Set("core.aggregate_ms", get("core.aggregate_ms"), "ms");
    m.Set("core.select_ms", get("core.select_ms"), "ms");
    m.Set("gis.near_ms", get("gis.near_ms"), "ms");
    const double lookups = static_cast<double>(drain_.hits + drain_.misses);
    m.Set("cache.hit_ratio", lookups > 0 ? drain_.hits / lookups : 0.0, "ratio");
    m.Set("telemetry.flight_bytes_per_query",
          static_cast<double>(flight_bytes_) /
              static_cast<double>(std::max<unsigned long long>(drain_.ok + drain_.errors, 1)),
          "B");
    m.Set("loader.load_s", get("loader.load_s"), "s");
    m.Set("columns.write_s", get("columns.write_s"), "s");
    m.Set("trace.unattributed_share", get("trace.unattributed_share"), "ratio");
  }
  char simd_line[256] = "unknown";
  {
    std::string out;
    if (RunToCompletion({args_.geocol, "simd"}, 30.0, &out) == 0) {
      size_t p = out.find("active dispatch level: ");
      if (p != std::string::npos) {
        std::snprintf(simd_line, sizeof(simd_line), "%s",
                      out.substr(p + 23, out.find('\n', p) - p - 23).c_str());
      }
    }
  }
  std::printf("machine: {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"simd\": \"%s\", \"commit\": \"%s\", "
              "\"steal_share\": %.4f}\n",
              sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
              JsonEscape(E2EBENCH_COMPILER).c_str(), E2EBENCH_BUILD_TYPE,
              JsonEscape(simd_line).c_str(), JsonEscape(args_.commit).c_str(),
              steal_share_);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(total_.attempted),
              static_cast<unsigned long long>(total_.failed), m.Json().c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

int Run::Execute() {
  std::error_code ec;
  // A run killed by a signal cannot clean up after itself; its successor
  // removes the scratch directories of runs that no longer exist.
  for (const auto& e : fs::directory_iterator(args_.work, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("run-", 0) != 0) continue;
    const pid_t pid = static_cast<pid_t>(std::atoi(name.c_str() + 4));
    if (pid > 0 && kill(pid, 0) != 0 && errno == ESRCH) fs::remove_all(e.path(), ec);
  }
  scratch_.path = args_.work + "/run-" + std::to_string(getpid());
  fs::remove_all(scratch_.path, ec);
  fs::create_directories(scratch_.path + "/tmp", ec);
  if (ec) {
    Fail("cannot create " + scratch_.path);
    return 1;
  }
  // `geocol load` stages its dumps under TMPDIR; keep them in the run dir.
  setenv("TMPDIR", (scratch_.path + "/tmp").c_str(), 1);
  StatementStream probe(args_.workload, extent_, args_.seed * 4,
                        /*fresh_only=*/true);
  probe_.sql = probe.Next();

  const auto start = Clock::now();
  auto phase = [&](const char* name, bool ok) {
    std::fprintf(stderr, "e2ebench: %-8s done at %6.2f s\n", name,
                 std::chrono::duration<double>(Clock::now() - start).count());
    return ok;
  };
  if (!phase("generate", Generate()) || !phase("setup", Setups()) ||
      !phase("oracle", BuildOracle()) || !phase("restart", Restart(/*keep=*/true)) ||
      !phase("measure", Measure()) || !phase("drain", TraceReplayAndDrain())) {
    return 1;
  }
  if (args_.trace && !phase("trace", TraceInProcess())) return 1;
  return Report();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <viewport_hot|ladder|"
                 "near_transit> --seed N --seconds S --trace 0|1 --geocol PATH "
                 "--work DIR [--commit ID]\n");
    return 2;
  }
  Run run(args);
  return run.Execute();
}
