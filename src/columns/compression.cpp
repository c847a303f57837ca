#include "columns/compression.h"

#include <cstring>

#include "columns/column_file.h"
#include "columns/paged_column.h"
#include "util/binary_io.h"
#include "util/bitpack.h"
#include "util/crc32c.h"
#include "util/tempdir.h"

namespace geocol {

namespace {

// GCC1 files predate the durability layer and carry no checksum; GCC2
// files end in a whole-file CRC32C footer. Both decode identically.
constexpr char kMagicV1[4] = {'G', 'C', 'C', '1'};
constexpr char kMagicV2[4] = {'G', 'C', 'C', '2'};

// Integer view of a column value (floats go through their bit patterns so
// every codec round-trips exactly).
template <typename T>
int64_t ToBits(T v) {
  if constexpr (std::is_same_v<T, float>) {
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    return static_cast<int64_t>(bits);
  } else if constexpr (std::is_same_v<T, double>) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    return static_cast<int64_t>(bits);
  } else {
    return static_cast<int64_t>(v);
  }
}

template <typename T>
T FromBits(int64_t v) {
  if constexpr (std::is_same_v<T, float>) {
    uint32_t bits = static_cast<uint32_t>(v);
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
  } else if constexpr (std::is_same_v<T, double>) {
    uint64_t bits = static_cast<uint64_t>(v);
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
  } else {
    return static_cast<T>(v);
  }
}

// Bit-pattern arithmetic in uint64_t: the integer views of doubles with
// mixed signs (and int64 extremes) span more than int64_t can hold, so a
// signed difference would overflow. Modular arithmetic round-trips every
// pattern, and the decoder inverts it with the same wrap.
inline uint64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<uint64_t>(a) - static_cast<uint64_t>(b);
}
inline int64_t WrapDelta(int64_t a, int64_t b) {
  return static_cast<int64_t>(WrapSub(a, b));
}
inline int64_t WrapAdd(int64_t a, uint64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + b);
}

template <typename T>
void Append64(std::vector<uint8_t>* out, T v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool Take64(const uint8_t* in, size_t size, size_t* pos, T* v) {
  if (*pos + sizeof(T) > size) return false;
  std::memcpy(v, in + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

template <typename T>
bool Take64(const std::vector<uint8_t>& in, size_t* pos, T* v) {
  return Take64(in.data(), in.size(), pos, v);
}

// ---- size estimators (cheap, no materialisation) -----------------------

// Runs compare bit patterns, not values: 0.0 and -0.0 (and NaN payloads)
// must stay distinct for the round trip to be exact.
template <typename T>
uint64_t RleRuns(std::span<const T> values) {
  if (values.empty()) return 0;
  uint64_t runs = 1;
  for (size_t i = 1; i < values.size(); ++i) {
    runs += ToBits(values[i]) != ToBits(values[i - 1]);
  }
  return runs;
}

template <typename T>
uint32_t ForBits(std::span<const T> values, int64_t* out_min) {
  int64_t mn = ToBits(values[0]), mx = mn;
  for (T v : values) {
    int64_t b = ToBits(v);
    mn = std::min(mn, b);
    mx = std::max(mx, b);
  }
  *out_min = mn;
  return BitsFor(WrapSub(mx, mn));
}

// Bit width of the zigzag deltas, excluding the first value (which is
// stored raw — otherwise the jump from 0 would dominate the width).
template <typename T>
uint32_t DeltaBits(std::span<const T> values) {
  uint64_t max_zz = 0;
  int64_t prev = values.empty() ? 0 : ToBits(values[0]);
  for (size_t i = 1; i < values.size(); ++i) {
    int64_t b = ToBits(values[i]);
    max_zz = std::max(max_zz, ZigZagEncode(WrapDelta(b, prev)));
    prev = b;
  }
  return BitsFor(max_zz);
}

// ---- encoders -----------------------------------------------------------

template <typename T>
void EncodeRle(std::span<const T> values, std::vector<uint8_t>* out) {
  uint64_t runs = RleRuns(values);
  Append64(out, runs);
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && ToBits(values[j]) == ToBits(values[i]) &&
           j - i < 0xFFFFFFFFull) {
      ++j;
    }
    Append64(out, values[i]);
    Append64(out, static_cast<uint32_t>(j - i));
    i = j;
  }
}

template <typename T>
Status DecodeRle(const uint8_t* in, size_t size, uint64_t count, T* out) {
  size_t pos = 0;
  uint64_t runs = 0;
  if (!Take64(in, size, &pos, &runs)) {
    return Status::Corruption("RLE: truncated");
  }
  uint64_t total = 0;
  for (uint64_t r = 0; r < runs; ++r) {
    T value;
    uint32_t len = 0;
    if (!Take64(in, size, &pos, &value) || !Take64(in, size, &pos, &len)) {
      return Status::Corruption("RLE: truncated run");
    }
    if (len > count - total) return Status::Corruption("RLE: run overflow");
    std::fill(out + total, out + total + len, value);
    total += len;
  }
  if (total != count) return Status::Corruption("RLE: wrong total");
  return Status::OK();
}

template <typename T>
void EncodeFor(std::span<const T> values, std::vector<uint8_t>* out) {
  int64_t mn = 0;
  uint32_t bits = ForBits(values, &mn);
  Append64(out, mn);
  out->push_back(static_cast<uint8_t>(bits));
  BitWriter bw(out);
  for (T v : values) {
    bw.Write(WrapSub(ToBits(v), mn), bits);
  }
  bw.FlushByte();
}

template <typename T>
Status DecodeFor(const uint8_t* in, size_t size, uint64_t count, T* out) {
  size_t pos = 0;
  int64_t mn = 0;
  if (!Take64(in, size, &pos, &mn)) {
    return Status::Corruption("FOR: truncated header");
  }
  if (pos >= size) return Status::Corruption("FOR: truncated header");
  uint8_t bits = in[pos++];
  BitReader br(in + pos, size - pos);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t packed = 0;
    if (bits > 0 && !br.Read(&packed, bits)) {
      return Status::Corruption("FOR: truncated payload");
    }
    out[i] = FromBits<T>(WrapAdd(mn, packed));
  }
  return Status::OK();
}

template <typename T>
void EncodeDelta(std::span<const T> values, std::vector<uint8_t>* out) {
  int64_t first = values.empty() ? 0 : ToBits(values[0]);
  Append64(out, first);
  uint32_t bits = DeltaBits(values);
  out->push_back(static_cast<uint8_t>(bits));
  BitWriter bw(out);
  int64_t prev = first;
  for (size_t i = 1; i < values.size(); ++i) {
    int64_t b = ToBits(values[i]);
    bw.Write(ZigZagEncode(WrapDelta(b, prev)), bits);
    prev = b;
  }
  bw.FlushByte();
}

template <typename T>
Status DecodeDelta(const uint8_t* in, size_t size, uint64_t count, T* out) {
  size_t pos = 0;
  int64_t first = 0;
  if (!Take64(in, size, &pos, &first)) {
    return Status::Corruption("DELTA: truncated header");
  }
  if (pos >= size && count > 1) {
    return Status::Corruption("DELTA: truncated header");
  }
  uint8_t bits = pos < size ? in[pos++] : 0;
  if (count == 0) return Status::OK();
  out[0] = FromBits<T>(first);
  BitReader br(in + pos, size - pos);
  int64_t prev = first;
  for (uint64_t i = 1; i < count; ++i) {
    uint64_t z = 0;
    if (bits > 0 && !br.Read(&z, bits)) {
      return Status::Corruption("DELTA: truncated payload");
    }
    prev = WrapAdd(prev, static_cast<uint64_t>(ZigZagDecode(z)));
    out[i] = FromBits<T>(prev);
  }
  return Status::OK();
}

// Estimated encoded bytes per codec; kRaw is the fallback ceiling.
template <typename T>
uint64_t EstimateBytes(std::span<const T> values, ColumnCodec codec) {
  const uint64_t n = values.size();
  switch (codec) {
    case ColumnCodec::kRaw:
      return n * sizeof(T);
    case ColumnCodec::kRle:
      return 8 + RleRuns(values) * (sizeof(T) + 4);
    case ColumnCodec::kFor: {
      int64_t mn;
      uint32_t bits = ForBits(values, &mn);
      return 9 + (n * bits + 7) / 8;
    }
    case ColumnCodec::kDelta:
      return 9 + ((n > 0 ? n - 1 : 0) * DeltaBits(values) + 7) / 8;
    case ColumnCodec::kAuto:
      break;
  }
  return ~uint64_t{0};
}

}  // namespace

const char* ColumnCodecName(ColumnCodec codec) {
  switch (codec) {
    case ColumnCodec::kRaw: return "raw";
    case ColumnCodec::kRle: return "rle";
    case ColumnCodec::kFor: return "for";
    case ColumnCodec::kDelta: return "delta";
    case ColumnCodec::kAuto: return "auto";
  }
  return "?";
}

std::vector<uint8_t> CompressChunkPayload(DataType type, const void* values,
                                          uint64_t count, ColumnCodec codec,
                                          ColumnCodec* chosen) {
  std::vector<uint8_t> out;
  ColumnCodec picked = codec;
  DispatchDataType(type, [&]<typename T>() {
    std::span<const T> vals{static_cast<const T*>(values),
                            static_cast<size_t>(count)};
    if (codec == ColumnCodec::kAuto) {
      picked = ColumnCodec::kRaw;
      uint64_t best = EstimateBytes(vals, ColumnCodec::kRaw);
      if (!vals.empty()) {
        for (ColumnCodec c : {ColumnCodec::kRle, ColumnCodec::kFor,
                              ColumnCodec::kDelta}) {
          uint64_t est = EstimateBytes(vals, c);
          if (est < best) {
            best = est;
            picked = c;
          }
        }
      }
    }
    if (picked == ColumnCodec::kFor && vals.empty()) {
      picked = ColumnCodec::kRaw;
    }
    switch (picked) {
      case ColumnCodec::kRaw: {
        const auto* p = static_cast<const uint8_t*>(values);
        out.insert(out.end(), p, p + count * sizeof(T));
        break;
      }
      case ColumnCodec::kRle: EncodeRle(vals, &out); break;
      case ColumnCodec::kFor: EncodeFor(vals, &out); break;
      case ColumnCodec::kDelta: EncodeDelta(vals, &out); break;
      case ColumnCodec::kAuto: break;  // unreachable
    }
  });
  if (chosen != nullptr) *chosen = picked;
  return out;
}

Status DecompressChunkPayload(DataType type, ColumnCodec codec,
                              const uint8_t* data, size_t size, uint64_t count,
                              void* out) {
  return DispatchDataType(type, [&]<typename T>() -> Status {
    T* typed = static_cast<T*>(out);
    switch (codec) {
      case ColumnCodec::kRaw: {
        uint64_t bytes = count * sizeof(T);
        if (bytes > size) return Status::Corruption("raw payload truncated");
        // An empty column has no buffer; memcpy forbids null even for 0.
        if (bytes > 0) std::memcpy(typed, data, bytes);
        return Status::OK();
      }
      case ColumnCodec::kRle: return DecodeRle<T>(data, size, count, typed);
      case ColumnCodec::kFor: return DecodeFor<T>(data, size, count, typed);
      case ColumnCodec::kDelta: return DecodeDelta<T>(data, size, count, typed);
      case ColumnCodec::kAuto: break;
    }
    return Status::Corruption("bad codec");
  });
}

Result<std::vector<uint8_t>> CompressColumn(const Column& column,
                                            ColumnCodec codec,
                                            CompressionStats* stats) {
  if (column.paged()) {
    return Status::InvalidArgument(
        "CompressColumn: paged columns are read-only (reopen the table "
        "resident to recompress)");
  }
  std::vector<uint8_t> out;
  out.insert(out.end(), kMagicV2, kMagicV2 + 4);
  out.push_back(static_cast<uint8_t>(column.type()));
  size_t codec_at = out.size();
  out.push_back(0);  // patched below
  uint64_t count = column.size();
  Append64(&out, count);

  ColumnCodec chosen = codec;
  std::vector<uint8_t> payload = CompressChunkPayload(
      column.type(), column.raw_data(), count, codec, &chosen);
  out.insert(out.end(), payload.begin(), payload.end());
  out[codec_at] = static_cast<uint8_t>(chosen);
  if (stats != nullptr) {
    stats->codec = chosen;
    stats->uncompressed_bytes = column.raw_size_bytes();
    stats->compressed_bytes = out.size();
  }
  return out;
}

Result<ColumnPtr> DecompressColumn(const std::vector<uint8_t>& data,
                                   const std::string& name) {
  if (data.size() < 4 + 1 + 1 + 8 ||
      (std::memcmp(data.data(), kMagicV2, 4) != 0 &&
       std::memcmp(data.data(), kMagicV1, 4) != 0)) {
    return Status::Corruption("bad compressed column header");
  }
  size_t pos = 4;
  uint8_t type_byte = data[pos++];
  uint8_t codec_byte = data[pos++];
  if (type_byte >= kNumDataTypes || codec_byte > 3) {
    return Status::Corruption("bad compressed column type/codec");
  }
  uint64_t count = 0;
  if (!Take64(data, &pos, &count)) {
    return Status::Corruption("bad compressed column count");
  }
  if (count > (uint64_t{1} << 40)) {
    return Status::Corruption("implausible compressed column count");
  }
  DataType type = static_cast<DataType>(type_byte);
  ColumnCodec codec = static_cast<ColumnCodec>(codec_byte);
  auto col = std::make_shared<Column>(name, type);
  std::vector<uint8_t> decoded(count * DataTypeSize(type));
  GEOCOL_RETURN_NOT_OK(DecompressChunkPayload(
      type, codec, data.data() + pos, data.size() - pos, count,
      decoded.data()));
  col->AppendRaw(decoded.data(), count);
  return col;
}

Status WriteCompressedColumnFile(const Column& column, const std::string& path,
                                 ColumnCodec codec, CompressionStats* stats) {
  GEOCOL_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                          CompressColumn(column, codec, stats));
  // Whole-file CRC32C footer over the encoded buffer, then an atomic
  // publish — a torn or bit-rotted .gcz is detected before decoding.
  uint32_t crc = Crc32c(data.data(), data.size());
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&crc);
  data.insert(data.end(), p, p + sizeof(crc));
  if (stats != nullptr) stats->compressed_bytes = data.size();
  return WriteFileAtomic(path, data.data(), data.size());
}

Result<ColumnPtr> ReadCompressedColumnFile(const std::string& path,
                                           const std::string& name) {
  std::vector<uint8_t> data;
  GEOCOL_RETURN_NOT_OK(ReadFileBytes(path, &data));
  if (data.size() < 4) {
    return Status::Corruption("compressed column file too small: " + path);
  }
  // Chunked-compressed (GPC1) files carry per-chunk CRCs instead of a
  // whole-file footer; this is their resident open.
  if (IsChunkedCompressedBuffer(data.data(), data.size())) {
    return DecompressChunkedColumn(data, name);
  }
  // Legacy GCC1 files were written without a footer and decode as-is.
  if (std::memcmp(data.data(), kMagicV1, 4) != 0) {
    if (std::memcmp(data.data(), kMagicV2, 4) != 0) {
      return Status::Corruption("bad compressed column magic: " + path);
    }
    if (data.size() < 8) {
      return Status::Corruption("compressed column file too small: " + path);
    }
    uint32_t stored = 0;
    std::memcpy(&stored, data.data() + data.size() - 4, 4);
    data.resize(data.size() - 4);
    uint32_t computed = Crc32c(data.data(), data.size());
    if (stored != computed) {
      return Status::Corruption("compressed column crc mismatch: " + path);
    }
  }
  return DecompressColumn(data, name);
}

Status WriteCompressedTableDir(const FlatTable& table, const std::string& dir,
                               uint64_t* total_bytes) {
  GEOCOL_RETURN_NOT_OK(table.Validate());
  GEOCOL_RETURN_NOT_OK(MakeDir(dir));
  // Same generation protocol as WriteTableDir: new generation under fresh
  // names, manifest swap as the commit point, old generation untouched.
  uint64_t gen = 1;
  if (PathExists(dir + "/schema.gct")) {
    auto old = ReadTableManifest(dir);
    if (old.ok()) gen = old->generation + 1;
  }
  TableManifest m;
  m.table_name = table.name();
  m.generation = gen;
  uint64_t total = 0;
  for (const auto& col : table.columns()) {
    std::string fname = col->name() + ".g" + std::to_string(gen) + ".gcz";
    CompressionStats stats;
    GEOCOL_RETURN_NOT_OK(WriteCompressedColumnFile(
        *col, dir + "/" + fname, ColumnCodec::kAuto, &stats));
    total += stats.compressed_bytes;
    m.columns.push_back({col->name(), col->type(), fname});
  }
  GEOCOL_RETURN_NOT_OK(WriteTableManifest(dir, m));
  CleanStaleTableFiles(dir, m);
  if (total_bytes != nullptr) *total_bytes = total;
  return Status::OK();
}

Result<FlatTable> ReadCompressedTableDir(const std::string& dir) {
  GEOCOL_ASSIGN_OR_RETURN(TableManifest m, ReadTableManifest(dir));
  FlatTable table(m.table_name);
  for (const auto& mc : m.columns) {
    const std::string fname =
        mc.filename.empty() ? mc.name + ".gcz" : mc.filename;
    GEOCOL_ASSIGN_OR_RETURN(
        ColumnPtr col, ReadCompressedColumnFile(dir + "/" + fname, mc.name));
    if (col->type() != mc.type) {
      return Status::Corruption("manifest/file type mismatch for " + mc.name);
    }
    GEOCOL_RETURN_NOT_OK(table.AddColumn(std::move(col)));
  }
  GEOCOL_RETURN_NOT_OK(table.Validate());
  return table;
}

}  // namespace geocol
