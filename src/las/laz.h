// LAZ-like lossless compression for point records: per-attribute delta
// coding with zigzag + per-chunk bit packing. This stands in for
// Rapidlasso's LAZ in the benchmarks — it exercises the same costs
// (decompression on every read, compression during acquisition/export) and
// achieves comparable ratios on acquisition-ordered data, where consecutive
// points are spatially close and deltas are small.
#ifndef GEOCOL_LAS_LAZ_H_
#define GEOCOL_LAS_LAZ_H_

#include <cstdint>
#include <vector>

#include "las/las_format.h"
#include "util/status.h"

namespace geocol {

/// Points per compression chunk (bit widths adapt per chunk).
constexpr size_t kLazChunkSize = 4096;

/// Compresses `points` into `out` (cleared first).
Status LazCompress(const std::vector<LasPointRecord>& points,
                   std::vector<uint8_t>* out);

/// True when a payload of `payload_bytes` can hold `count` points: every
/// chunk of up to kLazChunkSize points carries at least one bit-width byte
/// per attribute stream. Bounds an untrusted header count before anything
/// is sized from it.
bool LazCountFits(uint64_t count, uint64_t payload_bytes);

/// Decompresses a LazCompress payload; `count` is the expected number of
/// points (from the file header). Corruption, before any allocation, when
/// `count` exceeds what the payload can hold (LazCountFits).
Status LazDecompress(const std::vector<uint8_t>& data, uint64_t count,
                     std::vector<LasPointRecord>* out);

}  // namespace geocol

#endif  // GEOCOL_LAS_LAZ_H_
