#include "columns/column.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>

#include "simd/kernels.h"
#include "util/crc32c.h"

namespace geocol {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt8: return "int8";
    case DataType::kUInt8: return "uint8";
    case DataType::kInt16: return "int16";
    case DataType::kUInt16: return "uint16";
    case DataType::kInt32: return "int32";
    case DataType::kUInt32: return "uint32";
    case DataType::kInt64: return "int64";
    case DataType::kUInt64: return "uint64";
    case DataType::kFloat32: return "float32";
    case DataType::kFloat64: return "float64";
  }
  return "unknown";
}

namespace {

constexpr size_t kHugePageBytes = size_t{2} << 20;

size_t RoundUpToHugePage(size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

}  // namespace

void* AllocateColumnBuffer(size_t bytes) {
  if (bytes < kHugeColumnBufferBytes) return ::operator new(bytes);
  const size_t rounded = RoundUpToHugePage(bytes);
  void* p = std::aligned_alloc(kHugePageBytes, rounded);
  if (p == nullptr) throw std::bad_alloc();
#if defined(MADV_HUGEPAGE)
  // Advice only: where THP is off (or the range cannot take it) the
  // buffer simply stays on small pages.
  (void)::madvise(p, rounded, MADV_HUGEPAGE);
#endif
  return p;
}

void FreeColumnBuffer(void* p, size_t bytes) noexcept {
  if (bytes < kHugeColumnBufferBytes) {
    ::operator delete(p);
  } else {
    std::free(p);
  }
}

Status Column::AppendInPlace(
    size_t count,
    const std::function<Status(uint8_t*, std::optional<uint32_t>*)>& fill) {
  assert(!paged());
  const size_t old_bytes = data_.size();
  const size_t tail_bytes = count * width_;
  data_.resize(old_bytes + tail_bytes);
  std::optional<uint32_t> tail_crc;
  Status st = fill(data_.data() + old_bytes, &tail_crc);
  if (!st.ok()) {
    data_.resize(old_bytes);
    return st;
  }
  const bool prefix_known = old_bytes == 0 || payload_crc_known_;
  const uint32_t prefix_crc = old_bytes == 0 ? 0 : payload_crc_;
  Invalidate();
  if (prefix_known && tail_crc.has_value()) {
    payload_crc_ = old_bytes == 0
                       ? *tail_crc
                       : Crc32cCombine(prefix_crc, *tail_crc, tail_bytes);
    payload_crc_known_ = true;
  }
  return st;
}

Result<ColumnChunkPin> Column::PinChunk(size_t chunk_index) const {
  if (chunk_index >= num_chunks()) {
    return Status::InvalidArgument("chunk index out of range");
  }
  ColumnChunkPin pin;
  pin.data = data_.data();
  pin.first_row = 0;
  pin.row_count = size();
  return pin;  // keepalive empty: the caller holds the column alive
}

double Column::GetDouble(size_t row) const {
  assert(row < size());
  return DispatchDataType(type_, [&]<typename T>() -> double {
    T v;
    std::memcpy(&v, data_.data() + row * sizeof(T), sizeof(T));
    return static_cast<double>(v);
  });
}

Status Column::GetDoubleBatch(const uint64_t* rows, size_t n,
                              double* out) const {
  DispatchDataType(type_, [&]<typename T>() {
    simd::GatherDouble(reinterpret_cast<const T*>(data_.data()), rows, n, out);
  });
  return Status::OK();
}

int64_t Column::GetInt64(size_t row) const {
  assert(row < size());
  return DispatchDataType(type_, [&]<typename T>() -> int64_t {
    T v;
    std::memcpy(&v, data_.data() + row * sizeof(T), sizeof(T));
    return static_cast<int64_t>(v);
  });
}

const ColumnStats& Column::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!stats_.valid) {
    if (data_.empty()) {
      stats_.min = 0.0;
      stats_.max = 0.0;
    } else {
      DispatchDataType(type_, [&]<typename T>() {
        std::span<const T> vals{reinterpret_cast<const T*>(data_.data()),
                                data_.size() / width_};
        T mn = vals[0], mx = vals[0];
        for (T v : vals) {
          mn = std::min(mn, v);
          mx = std::max(mx, v);
        }
        stats_.min = static_cast<double>(mn);
        stats_.max = static_cast<double>(mx);
      });
    }
    stats_.valid = true;
  }
  return stats_;
}

void Column::SetCachedStats(double min, double max) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.min = min;
  stats_.max = max;
  stats_.valid = true;
}

uint32_t Column::payload_crc32c() const {
  if (payload_crc_known_) return payload_crc_;
  return Crc32c(data_.data(), data_.size());
}

Result<std::shared_ptr<Column>> Column::CloneAppend(
    const std::shared_ptr<Column>& base, const void* data, size_t count) {
  assert(base != nullptr);
  if (base->paged()) {
    return Status::InvalidArgument(
        "CloneAppend: paged columns are read-only (reopen the table "
        "resident to append)");
  }
  auto col = std::make_shared<Column>(base->name(), base->type());
  col->data_.reserve(base->data_.size() + count * base->width_);
  col->data_.insert(col->data_.end(), base->data_.begin(), base->data_.end());
  const auto* p = static_cast<const uint8_t*>(data);
  col->data_.insert(col->data_.end(), p, p + count * base->width_);
  col->base_ = base;
  col->base_rows_ = base->size();
  return col;
}

}  // namespace geocol
