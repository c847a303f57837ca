// The column: a densely packed, append-only array of one fixed-width type.
// This is the unit the imprints index attaches to, mirroring MonetDB's BAT
// tail array.
//
// Two storage tiers live behind this interface (DESIGN.md §14):
//   - the resident tier (this class): all values in one contiguous buffer,
//     Values<T>() returns the whole span, appends allowed;
//   - the paged tier (columns/paged_column.h): values stay on disk in the
//     column file's 256 KiB CRC chunks and are faulted into a budgeted
//     process-wide chunk cache on demand. Paged columns are read-only;
//     scans walk them chunk by chunk via PinChunk()/ForEachValueRun().
#ifndef GEOCOL_COLUMNS_COLUMN_H_
#define GEOCOL_COLUMNS_COLUMN_H_

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "columns/types.h"
#include "util/status.h"

namespace geocol {

/// Min/max statistics of a column (computed lazily, cached until the next
/// append invalidates them).
struct ColumnStats {
  double min = 0.0;
  double max = 0.0;
  bool valid = false;
};

/// A faulted-in, decoded view of one chunk of a paged column. `data` stays
/// valid while the pin is held (shared ownership with the chunk cache, so
/// a concurrent eviction cannot free it under the reader).
struct ColumnChunkPin {
  const uint8_t* data = nullptr;  ///< decoded little-endian values
  uint64_t first_row = 0;
  size_t row_count = 0;
  std::shared_ptr<const std::vector<uint8_t>> keepalive;

  template <typename T>
  const T* values() const {
    return reinterpret_cast<const T*>(data);
  }
};

/// Column buffers of at least this many bytes are 2 MiB-aligned and
/// advised MADV_HUGEPAGE (see ColumnAllocator).
constexpr size_t kHugeColumnBufferBytes = size_t{4} << 20;

/// Raw storage behind ColumnAllocator. Buffers of kHugeColumnBufferBytes
/// or more are 2 MiB-aligned and advised MADV_HUGEPAGE, so a 16 MB
/// coordinate column faults in as 8 huge pages instead of 4096 small ones
/// (the advice is a no-op where transparent huge pages are off); smaller
/// ones come from operator new. `bytes` must match between the two calls.
void* AllocateColumnBuffer(size_t bytes);
void FreeColumnBuffer(void* p, size_t bytes) noexcept;

/// The allocator of a column's byte vector. Unlike std::allocator it
/// default-initialises on resize: the direct-read path (AppendInPlace)
/// overwrites every new byte, and zeroing them first would page-fault the
/// whole buffer one extra time.
template <typename T>
struct ColumnAllocator {
  using value_type = T;
  ColumnAllocator() = default;
  template <typename U>
  ColumnAllocator(const ColumnAllocator<U>&) noexcept {}
  T* allocate(size_t n) {
    return static_cast<T*>(AllocateColumnBuffer(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    FreeColumnBuffer(p, n * sizeof(T));
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(const ColumnAllocator&, const ColumnAllocator&) {
    return true;
  }
};

/// A type-erased, densely packed column of fixed-width values.
///
/// Storage is a contiguous byte buffer; typed access goes through
/// `Values<T>()` which checks the runtime type. Appends invalidate the
/// cached statistics and any imprints built on the column (tracked via the
/// append epoch). Virtual methods are the paged tier's override points.
class Column {
 public:
  Column(std::string name, DataType type)
      : name_(std::move(name)), type_(type), width_(DataTypeSize(type)) {}
  virtual ~Column() = default;

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  size_t width() const { return width_; }
  virtual size_t size() const { return data_.size() / width_; }
  bool empty() const { return size() == 0; }

  /// True for the paged (out-of-core) tier: values are not resident, so
  /// Values<T>(), raw_data() and every mutation are off limits; readers go
  /// through PinChunk()/ForEachValueRun() or the batched getters.
  virtual bool paged() const { return false; }

  /// Rows per paging chunk. Chunks are 256 KiB of fixed-width values, so
  /// this is a power of two >= 32768 — always a multiple of 64 (BitVector
  /// word), of the 4096-value SIMD block, and of every imprints
  /// values-per-cacheline, which keeps chunk boundaries off every scan
  /// boundary case. Resident columns report one whole-column "chunk".
  virtual size_t chunk_rows() const { return size(); }

  virtual size_t num_chunks() const { return size() == 0 ? 0 : 1; }

  /// Faults (or finds cached) chunk `chunk_index` and pins its decoded
  /// bytes. Resident columns pin their buffer directly (no copy). A read
  /// or checksum failure surfaces here — scans propagate it instead of
  /// producing partial answers.
  virtual Result<ColumnChunkPin> PinChunk(size_t chunk_index) const;

  /// Monotonic counter bumped on every mutation; index structures remember
  /// the epoch they were built at and rebuild when it moves.
  uint64_t epoch() const { return epoch_; }

  /// Typed read-only view of the whole column. T must match type();
  /// resident tier only (paged columns have no contiguous buffer).
  template <typename T>
  std::span<const T> Values() const {
    assert(DataTypeOf<T>() == type_);
    assert(!paged());
    return {reinterpret_cast<const T*>(data_.data()), data_.size() / width_};
  }

  template <typename T>
  void Append(T value) {
    assert(DataTypeOf<T>() == type_);
    assert(!paged());
    const auto* p = reinterpret_cast<const uint8_t*>(&value);
    data_.insert(data_.end(), p, p + sizeof(T));
    Invalidate();
  }

  template <typename T>
  void AppendSpan(std::span<const T> values) {
    assert(DataTypeOf<T>() == type_);
    assert(!paged());
    const auto* p = reinterpret_cast<const uint8_t*>(values.data());
    data_.insert(data_.end(), p, p + values.size_bytes());
    Invalidate();
  }

  /// Appends `count` values of this column's type from a raw little-endian
  /// buffer — the COPY BINARY path of the binary bulk loader.
  void AppendRaw(const void* data, size_t count) {
    assert(!paged());
    const auto* p = static_cast<const uint8_t*>(data);
    data_.insert(data_.end(), p, p + count * width_);
    Invalidate();
  }

  /// Direct-read append: grows the buffer by `count` values, leaves them
  /// unzeroed and hands them to `fill(tail, &tail_crc)`, which must write
  /// every byte. This is how column files and raw dumps land in memory: no
  /// staging buffer, no copy. A `fill` that verified the bytes against
  /// stored checksums sets `tail_crc` to their CRC32C; the column then
  /// keeps its payload CRC (payload_crc32c() answers without a rescan)
  /// until the next mutation. On error the column is left as it was.
  Status AppendInPlace(
      size_t count,
      const std::function<Status(uint8_t* tail,
                                 std::optional<uint32_t>* tail_crc)>& fill);

  void Reserve(size_t rows) { data_.reserve(rows * width_); }
  void Clear() {
    data_.clear();
    Invalidate();
  }

  /// Copy-on-append: a NEW column holding `base`'s bytes followed by
  /// `count` values from a raw little-endian buffer. `base` is never
  /// touched — readers scanning it keep a stable view — and the new column
  /// remembers `base` as its lineage (weak, so retiring every snapshot of
  /// the old version frees its bytes). The imprint manager follows the
  /// lineage to extend the old index incrementally instead of rebuilding.
  /// This is the publication primitive of the live-ingestion path
  /// (DESIGN.md §13). InvalidArgument for paged bases (read-only tier).
  static Result<std::shared_ptr<Column>> CloneAppend(
      const std::shared_ptr<Column>& base, const void* data, size_t count);

  /// Lineage of a CloneAppend column: the column this one extends, or null
  /// when there is none (fresh column) or every reference to it is gone.
  std::shared_ptr<const Column> base() const { return base_.lock(); }
  /// Rows inherited from base() (0 when no lineage).
  uint64_t base_rows() const { return base_rows_; }

  /// Value converted to double (lossless for all types up to 2^53). On a
  /// paged column a chunk-fault failure cannot be reported here; callers
  /// that must distinguish an I/O error from a value use GetDoubleBatch
  /// (the paged override logs, counts and returns quiet NaN).
  virtual double GetDouble(size_t row) const;

  /// Batched GetDouble: out[i] = GetDouble(rows[i]). Resolves the type
  /// switch once for the whole batch and runs the SIMD gather kernel, so
  /// refinement can pull candidate coordinates without a per-row dispatch.
  /// The paged tier faults the covering chunks; a fault failure returns
  /// non-OK and `out` must not be used.
  virtual Status GetDoubleBatch(const uint64_t* rows, size_t n,
                                double* out) const;

  /// Value converted to int64 (floats are truncated). Same paged-fault
  /// caveat as GetDouble.
  virtual int64_t GetInt64(size_t row) const;

  /// Cached min/max; recomputed after appends. Safe to call from
  /// concurrent readers of an immutable (published) column — computation
  /// is serialised on an internal mutex. Mutating the column while another
  /// thread reads it remains the caller's bug, as everywhere else.
  virtual const ColumnStats& Stats() const;

  /// Seeds the stats cache without a scan — the COW append path knows the
  /// new min/max from base stats + batch extremes. Marks the cache valid.
  void SetCachedStats(double min, double max);

  /// CRC32C of the full little-endian value payload. A resident column
  /// read from a verified file answers from the chunk CRCs it verified;
  /// any other resident column checksums its buffer. The paged tier
  /// answers from per-chunk CRCs already on disk (Crc32cCombine) without
  /// faulting anything, so imprint sidecar fingerprints agree between the
  /// two tiers.
  virtual uint32_t payload_crc32c() const;

  /// Resident tier only (nullptr when paged).
  const uint8_t* raw_data() const {
    assert(!paged());
    return data_.data();
  }

  /// Grants mutable access to the raw buffer for in-place reorganisation
  /// (row shuffles, SFC sorts); bumps the epoch so cached indexes and
  /// statistics are rebuilt. Resident tier only.
  uint8_t* BeginRawUpdate() {
    assert(!paged());
    Invalidate();
    return data_.data();
  }

  /// Logical payload size in bytes (rows x width) — defined for both
  /// tiers; only the resident tier holds these bytes in memory.
  virtual size_t raw_size_bytes() const { return data_.size(); }

  /// Heap bytes held by this column object itself. The paged tier reports
  /// its directory overhead only — faulted chunks are charged to the
  /// process-wide chunk cache, not to the column.
  virtual size_t MemoryBytes() const { return data_.capacity(); }

  /// Creates a column and fills it from a typed vector.
  template <typename T>
  static std::shared_ptr<Column> FromVector(std::string name,
                                            const std::vector<T>& values) {
    auto col = std::make_shared<Column>(std::move(name), DataTypeOf<T>());
    col->template AppendSpan<T>(values);
    return col;
  }

 protected:
  /// Paged subclass: pins the load epoch so both open modes of one file
  /// report the same column epochs.
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

 private:
  void Invalidate() {
    ++epoch_;
    stats_.valid = false;
    payload_crc_known_ = false;
  }

  std::string name_;
  DataType type_;
  size_t width_;
  std::vector<uint8_t, ColumnAllocator<uint8_t>> data_;
  uint64_t epoch_ = 0;
  /// CRC32C of data_, valid while payload_crc_known_ (set only by a
  /// verified AppendInPlace, cleared by every mutation).
  uint32_t payload_crc_ = 0;
  bool payload_crc_known_ = false;
  /// Lineage for incremental index maintenance (set by CloneAppend).
  std::weak_ptr<const Column> base_;
  uint64_t base_rows_ = 0;
  mutable std::mutex stats_mu_;  ///< serialises lazy stats computation
  mutable ColumnStats stats_;
};

using ColumnPtr = std::shared_ptr<Column>;

/// Applies `fn(const T* values, uint64_t first_row, size_t count)` over
/// [begin_row, end_row) in storage order. Resident columns get one call
/// over the contiguous span (zero overhead vs Values<T>()); paged columns
/// get one call per faulted chunk, each pinned only for the duration of
/// its call. The only Status sources are chunk faults, so resident columns
/// cannot fail.
template <typename T, typename Fn>
Status ForEachValueRun(const Column& column, uint64_t begin_row,
                       uint64_t end_row, Fn&& fn) {
  assert(DataTypeOf<T>() == column.type());
  if (begin_row >= end_row) return Status::OK();
  if (!column.paged()) {
    std::span<const T> values = column.Values<T>();
    fn(values.data() + begin_row, begin_row,
       static_cast<size_t>(end_row - begin_row));
    return Status::OK();
  }
  const size_t chunk_rows = column.chunk_rows();
  for (uint64_t row = begin_row; row < end_row;) {
    GEOCOL_ASSIGN_OR_RETURN(ColumnChunkPin pin,
                            column.PinChunk(row / chunk_rows));
    const uint64_t stop =
        std::min<uint64_t>(end_row, pin.first_row + pin.row_count);
    fn(pin.values<T>() + (row - pin.first_row), row,
       static_cast<size_t>(stop - row));
    row = stop;
  }
  return Status::OK();
}

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_COLUMN_H_
