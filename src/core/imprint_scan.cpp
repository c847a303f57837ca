#include "core/imprint_scan.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "core/imprints_io.h"
#include "core/native_range.h"
#include "simd/kernels.h"
#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace geocol {

namespace {

// Columns below this size are scanned serially even when a pool is given —
// the fork/join overhead would dominate.
constexpr uint64_t kMinParallelScanRows = 1 << 17;
// Morsel granularity (rows); rounded up to a multiple of lcm(64, values
// per line) so every morsel covers whole cache lines and whole BitVector
// words.
constexpr uint64_t kTargetMorselRows = 1 << 16;

/// One maximal run of candidate cache lines from the imprint filter.
struct CandidateRun {
  uint64_t first_line;
  uint64_t line_count;
  bool full;
};

}  // namespace

Status ImprintRangeSelect(const Column& column, const ImprintsIndex& index,
                          double lo, double hi, BitVector* out_rows,
                          ImprintScanStats* stats, ThreadPool* pool) {
  if (index.built_epoch() != column.epoch()) {
    return Status::Internal("stale imprints index (column was modified)");
  }
  const auto scan_start = std::chrono::steady_clock::now();
  out_rows->Resize(column.size());
  ImprintScanStats merged;
  merged.lines_total = index.num_lines();

  const bool want_parallel = pool != nullptr && pool->num_threads() > 0 &&
                             column.size() >= kMinParallelScanRows;

  Status scan_status;
  DispatchDataType(column.type(), [&]<typename T>() {
    // Compare in the column's native type: the bounds are clamped into T
    // once per scan, so large int64 values are never rounded through
    // double. An unsatisfiable clamped range selects nothing.
    NativeRange<T> nr = ClampRangeToType<T>(lo, hi);
    if (nr.empty) return;

    const uint64_t n = column.size();
    const uint64_t vpl = index.values_per_line();

    // Scans the lines [first_line, first_line + line_count) of one run,
    // shared by the serial path and the clipped per-morsel path. Values are
    // reached through ForEachValueRun: resident columns get the contiguous
    // span (exactly the old direct-pointer path), paged columns fault only
    // the chunks their boundary runs overlap — full runs never touch a
    // value, so imprint pruning translates straight into chunks never read.
    // A chunk split restarts the 4096-value stride mid-run, which changes
    // kernel call boundaries but not the selected bits or the stat sums.
    auto scan_lines = [&](uint64_t first_line, uint64_t line_count, bool full,
                          ImprintScanStats& st) -> Status {
      st.lines_candidate += line_count;
      uint64_t first_row = first_line * vpl;
      uint64_t last_row = std::min((first_line + line_count) * vpl, n);
      if (full) {
        st.lines_full += line_count;
        out_rows->SetRange(first_row, last_row);
        st.rows_selected += last_row - first_row;
        st.rows_full += last_row - first_row;
        return Status::OK();
      }
      // Boundary run: the SIMD range kernel turns each chunk of values into
      // selection words on the stack, which land in the BitVector with two
      // ORs per word. Workers stay write-disjoint because morsels cover
      // whole 64-bit words and the chunk never crosses last_row.
      return ForEachValueRun<T>(
          column, first_row, last_row,
          [&](const T* vals, uint64_t first, size_t count) {
            constexpr uint64_t kChunkValues = 4096;
            uint64_t scratch[kChunkValues / 64];
            for (uint64_t off = 0; off < count; off += kChunkValues) {
              const uint64_t cn = std::min<uint64_t>(kChunkValues, count - off);
              const uint64_t sel = simd::RangeSelectBits(vals + off, cn, nr.lo,
                                                         nr.hi, scratch);
              out_rows->OrWordsAt(first + off, scratch, cn);
              st.values_checked += cn;
              st.rows_selected += sel;
            }
          });
    };

    constexpr bool kNanPossible = std::is_floating_point_v<T>;
    if (!want_parallel) {
      index.FilterRangeRuns(
          lo, hi,
          [&](uint64_t first_line, uint64_t line_count, bool full) {
            if (!scan_status.ok()) return;
            scan_status = scan_lines(first_line, line_count, full, merged);
          },
          kNanPossible);
      return;
    }

    // Parallel scan: materialise the candidate runs (touches only the
    // compressed imprint stream), then carve the row space into morsels
    // whose boundaries are multiples of lcm(64, values_per_line). Every
    // morsel covers whole cache lines (stats split exactly) and whole
    // 64-bit words (workers write disjoint BitVector words).
    std::vector<CandidateRun> runs;
    index.FilterRangeRuns(
        lo, hi,
        [&](uint64_t first_line, uint64_t line_count, bool full) {
          runs.push_back({first_line, line_count, full});
        },
        kNanPossible);
    if (runs.empty()) return;

    const uint64_t unit = std::lcm<uint64_t>(64, vpl);
    const uint64_t morsel_rows = ((kTargetMorselRows + unit - 1) / unit) * unit;
    const uint64_t num_morsels = (n + morsel_rows - 1) / morsel_rows;
    if (num_morsels < 2) {
      for (const CandidateRun& r : runs) {
        scan_status = scan_lines(r.first_line, r.line_count, r.full, merged);
        if (!scan_status.ok()) return;
      }
      return;
    }

    std::vector<ImprintScanStats> morsel_stats(num_morsels);
    std::vector<Status> morsel_status(num_morsels);
    pool->ParallelFor(num_morsels, [&](size_t m) {
      const uint64_t row_begin = m * morsel_rows;
      const uint64_t row_end = std::min(n, row_begin + morsel_rows);
      const uint64_t line_begin = row_begin / vpl;
      const uint64_t line_end = (row_end + vpl - 1) / vpl;
      ImprintScanStats& st = morsel_stats[m];
      // First run overlapping this morsel; runs are sorted and disjoint.
      auto it = std::partition_point(
          runs.begin(), runs.end(), [&](const CandidateRun& r) {
            return r.first_line + r.line_count <= line_begin;
          });
      for (; it != runs.end() && it->first_line < line_end; ++it) {
        uint64_t lb = std::max(it->first_line, line_begin);
        uint64_t le = std::min(it->first_line + it->line_count, line_end);
        morsel_status[m] = scan_lines(lb, le - lb, it->full, st);
        if (!morsel_status[m].ok()) return;
      }
    });
    for (Status& st : morsel_status) {
      if (!st.ok()) {
        scan_status = std::move(st);
        return;
      }
    }
    for (const ImprintScanStats& st : morsel_stats) {
      merged.lines_candidate += st.lines_candidate;
      merged.lines_full += st.lines_full;
      merged.values_checked += st.values_checked;
      merged.rows_selected += st.rows_selected;
      merged.rows_full += st.rows_full;
    }
    merged.workers = static_cast<uint32_t>(
        std::min<uint64_t>(num_morsels, pool->num_threads() + 1));
  });
  GEOCOL_RETURN_NOT_OK(scan_status);
  // Work counters feed `geocol metrics` exposition and must stay equal to
  // the span attributes EXPLAIN ANALYZE reports (asserted in tests).
  GEOCOL_METRIC_COUNTER(c_scans, "geocol_imprint_scans_total");
  GEOCOL_METRIC_COUNTER(c_lines_total, "geocol_imprint_cachelines_total");
  GEOCOL_METRIC_COUNTER(c_lines_probed, "geocol_imprint_cachelines_probed_total");
  GEOCOL_METRIC_COUNTER(c_lines_full, "geocol_imprint_cachelines_full_total");
  GEOCOL_METRIC_COUNTER(c_values, "geocol_imprint_values_checked_total");
  GEOCOL_METRIC_COUNTER(c_rows, "geocol_imprint_rows_selected_total");
  GEOCOL_METRIC_COUNTER(c_rows_full, "geocol_imprint_rows_full_total");
  GEOCOL_METRIC_HISTOGRAM(h_scan, "geocol_imprint_scan_nanos");
  c_scans.Increment();
  c_lines_total.Increment(merged.lines_total);
  c_lines_probed.Increment(merged.lines_candidate);
  c_lines_full.Increment(merged.lines_full);
  c_values.Increment(merged.values_checked);
  c_rows.Increment(merged.rows_selected);
  c_rows_full.Increment(merged.rows_full);
  h_scan.Observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - scan_start)
                     .count());
  if (stats != nullptr) *stats = merged;
  return Status::OK();
}

Status FullScanRangeSelect(const Column& column, double lo, double hi,
                           BitVector* out_rows) {
  out_rows->Resize(column.size());
  Status status;
  DispatchDataType(column.type(), [&]<typename T>() {
    NativeRange<T> nr = ClampRangeToType<T>(lo, hi);
    if (nr.empty) return;
    // Each run's kernel writes ceil(count/64) selection words straight into
    // the BitVector's word array (tail bits zero). Resident columns are one
    // run; paged runs start on chunk boundaries, which are multiples of 64
    // rows, so every run except the last writes whole words and the word
    // offset `first / 64` is exact.
    status = ForEachValueRun<T>(
        column, 0, column.size(),
        [&](const T* vals, uint64_t first, size_t count) {
          simd::RangeSelectBits(vals, count, nr.lo, nr.hi,
                                out_rows->mutable_words() + first / 64);
        });
  });
  return status;
}

namespace {

/// True when `index` describes exactly the current state of `column`.
bool IndexFresh(const ImprintsIndex* index, const Column& column) {
  return index != nullptr && index->built_epoch() == column.epoch() &&
         index->num_rows() == column.size();
}

}  // namespace

Result<std::shared_ptr<const ImprintsIndex>> ImprintManager::GetOrBuild(
    const ColumnPtr& column) {
  if (column == nullptr) return Status::InvalidArgument("null column");
  GEOCOL_METRIC_COUNTER(c_hits, "geocol_imprint_cache_hits_total");
  GEOCOL_METRIC_COUNTER(c_misses, "geocol_imprint_cache_misses_total");
  GEOCOL_METRIC_COUNTER(c_builds, "geocol_imprint_builds_total");
  GEOCOL_METRIC_HISTOGRAM(h_build, "geocol_imprint_build_nanos");

  std::shared_ptr<const ImprintsIndex> base_index;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Entry& e = cache_[column.get()];
      if (e.column.expired() && !e.building) {
        // Fresh slot, or a dead column whose heap address was reused (the
        // builder pins its column alive, so building implies not expired).
        e.index.reset();
        e.column = column;
      }
      if (IndexFresh(e.index.get(), *column)) {
        c_hits.Increment();
        return e.index;
      }
      if (!e.building) {
        e.building = true;
        break;
      }
      // Another thread is building this column's index off-lock; park
      // until any build publishes, then re-check. The wait releases mu_,
      // so lookups of other columns proceed unimpeded.
      build_cv_.wait(lock);
    }
    // Incremental path: a fresh cached index of the COW lineage base lets
    // us extend over the appended tail instead of rebuilding.
    if (auto base_col = column->base()) {
      auto it = cache_.find(base_col.get());
      if (it != cache_.end() && IndexFresh(it->second.index.get(), *base_col) &&
          column->base_rows() == base_col->size()) {
        base_index = it->second.index;
      }
    }
    if (cache_.size() >= prune_watermark_) PruneLocked();
  }

  c_misses.Increment();
  const auto build_start = std::chrono::steady_clock::now();
  bool adopted = false;
  Result<ImprintsIndex> built = BuildIndex(column, base_index, &adopted);

  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = cache_[column.get()];
  e.building = false;
  e.column = column;
  build_cv_.notify_all();
  GEOCOL_RETURN_NOT_OK(built.status());
  // Sidecar adoptions count in geocol_imprint_sidecar_loads_total only.
  if (!adopted) {
    c_builds.Increment();
    h_build.Observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - build_start)
                        .count());
  }
  auto index = std::make_shared<const ImprintsIndex>(std::move(*built));
  e.index = index;
  return index;
}

Result<ImprintsIndex> ImprintManager::BuildIndex(
    const ColumnPtr& column,
    const std::shared_ptr<const ImprintsIndex>& base_index, bool* adopted) {
  const std::string sidecar =
      sidecar_dir_.empty() ? ""
                           : ImprintsSidecarPath(sidecar_dir_, column->name());
  if (base_index != nullptr && column->size() > base_index->num_rows()) {
    GEOCOL_METRIC_COUNTER(c_incr, "geocol_imprint_incremental_builds_total");
    GEOCOL_METRIC_COUNTER(c_fallback, "geocol_imprint_stitch_fallbacks_total");
    Result<ImprintsIndex> stitched =
        ImprintsIndex::ExtendAppend(*base_index, *column, pool_);
    bool verified = false;
    if (stitched.ok()) {
      // Probe verification: re-binarise a deterministic sample of lines
      // (biased to the inherited prefix — the tail was just built) and
      // compare against the stitched dictionary. A mismatch means the
      // lineage assumption broke; never serve that index.
      verified = !stitch_fault_.exchange(false);
      if (verified) {
        const uint64_t lines = stitched->num_lines();
        const uint64_t probes = std::min<uint64_t>(lines, 16);
        const BinBounds& bins = stitched->bins();
        const uint32_t vpl = stitched->values_per_line();
        for (uint64_t p = 0; p < probes && verified; ++p) {
          uint64_t line = lines * p / probes;
          uint64_t first = line * vpl;
          uint64_t last =
              std::min<uint64_t>(first + vpl, stitched->num_rows());
          uint64_t v = 0;
          for (uint64_t i = first; i < last; ++i) {
            v |= uint64_t{1} << bins.BinOf(column->GetDouble(i));
          }
          verified = stitched->VectorAtLine(line) == v;
        }
      }
      if (verified) {
        c_incr.Increment();
        if (!sidecar.empty()) {
          Status persisted = WriteImprintsFile(*stitched, sidecar,
                                               ColumnFingerprint(*column));
          if (!persisted.ok()) {
            GEOCOL_LOG(Warning)
                    .With("path", sidecar)
                    .With("error", persisted.ToString())
                << "could not persist stitched imprints sidecar";
          }
        }
        return stitched;
      }
    }
    // Stitch failed (or failed verification): quarantine the sidecar so
    // the rebuild cannot adopt state derived from the bad lineage, then
    // build from scratch.
    c_fallback.Increment();
    GEOCOL_LOG(Warning)
            .With("column", column->name())
            .With("error", stitched.ok() ? std::string("probe mismatch")
                                         : stitched.status().ToString())
        << "incremental imprint stitch rejected; rebuilding from scratch";
    if (!sidecar.empty() && PathExists(sidecar)) {
      Status moved = RenameFile(sidecar, sidecar + ".quarantined");
      if (!moved.ok()) {
        GEOCOL_LOG(Warning)
                .With("path", sidecar)
                .With("error", moved.ToString())
            << "could not quarantine sidecar after stitch failure";
      }
    }
  }
  // Sidecar-backed build reuses a verified on-disk index when fresh and
  // transparently quarantines + rebuilds when corrupt or stale.
  return sidecar.empty()
             ? ImprintsIndex::Build(*column, options_, pool_)
             : LoadOrBuildImprints(*column, sidecar, options_, pool_,
                                   adopted);
}

void ImprintManager::PruneLocked() {
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (!it->second.building && it->second.column.expired()) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  prune_watermark_ = std::max<size_t>(8, cache_.size() * 2);
}

uint64_t ImprintManager::TotalStorageBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [col, entry] : cache_) {
    if (entry.index != nullptr) {
      total += entry.index->Storage(0).total_bytes;
    }
  }
  return total;
}

size_t ImprintManager::num_indexes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [col, entry] : cache_) {
    n += entry.index != nullptr ? 1 : 0;
  }
  return n;
}

void ImprintManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // In-flight builds keep their entries (the builder will republish into
  // them); dropping one would strand its waiters' building flag.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.building) {
      it->second.index.reset();
      ++it;
    } else {
      it = cache_.erase(it);
    }
  }
}

}  // namespace geocol
