#include "core/binning.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace geocol {

namespace {
uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 2;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

Result<BinBounds> BinBounds::FromBounds(const std::vector<double>& inner) {
  if (inner.size() > 63) {
    return Status::InvalidArgument("too many bin bounds (max 63)");
  }
  for (size_t i = 1; i < inner.size(); ++i) {
    if (!(inner[i] > inner[i - 1])) {
      return Status::InvalidArgument("bin bounds must be strictly increasing");
    }
  }
  BinBounds b;
  uint32_t n = static_cast<uint32_t>(inner.size()) + 1;
  // Imprint vectors are 64-bit; keep num_bins a power of two so the query
  // mask logic can assume it, padding with unreachable +inf bins.
  b.num_bins_ = RoundUpPow2(n);
  for (size_t i = 0; i < inner.size(); ++i) b.upper_[i] = inner[i];
  for (uint32_t i = n - 1; i < b.num_bins_; ++i) {
    b.upper_[i] = std::numeric_limits<double>::infinity();
  }
  return b;
}

Result<BinBounds> BinBounds::FromRawUppers(const std::vector<double>& uppers) {
  size_t n = uppers.size();
  if (n < 2 || n > 64 || (n & (n - 1)) != 0) {
    return Status::Corruption("bin bounds: size must be a power of two in [2,64]");
  }
  if (!std::isinf(uppers.back())) {
    return Status::Corruption("bin bounds: last bound must be +inf");
  }
  bool seen_inf = false;
  for (size_t i = 0; i < n; ++i) {
    if (std::isinf(uppers[i])) {
      seen_inf = true;
      continue;
    }
    if (seen_inf) {
      return Status::Corruption("bin bounds: finite bound after +inf padding");
    }
    if (i > 0 && !(uppers[i] > uppers[i - 1])) {
      return Status::Corruption("bin bounds: not strictly increasing");
    }
  }
  BinBounds b;
  b.num_bins_ = static_cast<uint32_t>(n);
  for (size_t i = 0; i < n; ++i) b.upper_[i] = uppers[i];
  return b;
}

Result<BinBounds> BinBounds::Sample(const Column& column, uint32_t max_bins,
                                    uint32_t sample_size, uint64_t seed) {
  if (column.empty()) {
    return Status::InvalidArgument("cannot bin an empty column");
  }
  if (max_bins < 2 || max_bins > 64) {
    return Status::InvalidArgument("max_bins must be in [2, 64]");
  }
  Rng rng(seed);
  size_t n = column.size();
  size_t samples = std::min<size_t>(sample_size, n);
  // Draw the row ids first and gather them in ASCENDING row order: the
  // sample is sorted by value right below, so the row order cannot change
  // the bounds, and a paged column then faults every touched chunk once
  // instead of once per sampled value.
  std::vector<uint64_t> rows(samples);
  if (samples == n) {
    for (size_t i = 0; i < n; ++i) rows[i] = i;
  } else {
    for (size_t i = 0; i < samples; ++i) rows[i] = rng.Uniform(n);
    std::sort(rows.begin(), rows.end());
  }
  std::vector<double> sample(samples);
  if (Status st = column.GetDoubleBatch(rows.data(), samples, sample.data());
      !st.ok()) {
    return st;
  }
  // NaN has no place in the order (BinOf files it in bin 0), and sorting
  // it would break the comparator's strict weak ordering.
  std::erase_if(sample, [](double v) { return std::isnan(v); });
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());

  uint32_t distinct = static_cast<uint32_t>(sample.size());
  // As in MonetDB: shrink the imprint when the sample shows few distinct
  // values; bins = next power of two covering the distinct count, capped.
  uint32_t bins = std::min(max_bins, RoundUpPow2(std::max<uint32_t>(distinct, 2)));

  std::vector<double> bounds;
  if (distinct <= bins - 1) {
    // One bin boundary per distinct value: exact binning.
    bounds.assign(sample.begin(), sample.end());
    if (!bounds.empty()) bounds.pop_back();  // last bin is unbounded anyway
  } else {
    // Equi-depth: boundaries at equal ranks of the distinct sample.
    bounds.reserve(bins - 1);
    for (uint32_t i = 1; i < bins; ++i) {
      size_t rank = static_cast<size_t>(
          static_cast<double>(i) * distinct / bins);
      rank = std::min(rank, sample.size() - 1);
      double bnd = sample[rank];
      if (bounds.empty() || bnd > bounds.back()) bounds.push_back(bnd);
    }
  }
  return FromBounds(bounds);
}

}  // namespace geocol
