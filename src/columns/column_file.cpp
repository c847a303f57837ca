#include "columns/column_file.h"

#include <cstring>
#include <optional>

#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/tempdir.h"
#include "util/thread_pool.h"

namespace geocol {

namespace {

constexpr char kColumnMagicV1[4] = {'G', 'C', 'L', '1'};
constexpr char kColumnMagicV2[4] = {'G', 'C', 'L', '2'};
constexpr char kTableMagicV1[4] = {'G', 'C', 'T', '1'};
constexpr char kTableMagicV2[4] = {'G', 'C', 'T', '2'};

constexpr uint64_t kMaxPlausibleRows = uint64_t{1} << 40;

uint64_t NumChunks(uint64_t payload_bytes, uint64_t chunk_bytes) {
  return payload_bytes == 0 ? 0
                            : (payload_bytes + chunk_bytes - 1) / chunk_bytes;
}

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

/// The parsed fixed-size part of a column file.
struct ColumnFileHeader {
  DataType type = DataType::kFloat64;
  uint64_t count = 0;
  uint32_t chunk_bytes = 0;       ///< 0 in legacy files
  std::vector<uint32_t> chunk_crcs;
  bool legacy = false;            ///< GCL1 or a raw dump: no chunk CRCs
};

Result<ColumnFileHeader> ReadColumnFileHeader(BinaryReader* r,
                                              const std::string& path) {
  ColumnFileHeader h;
  char magic[4];
  GEOCOL_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::memcmp(magic, kColumnMagicV1, 4) == 0) {
    h.legacy = true;
  } else if (std::memcmp(magic, kColumnMagicV2, 4) != 0) {
    return Status::Corruption("bad column file magic: " + path);
  }

  uint8_t type_byte = 0;
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&type_byte));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h.count));
  if (!h.legacy) {
    uint32_t header_crc = 0;
    GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h.chunk_bytes));
    GEOCOL_RETURN_NOT_OK(r->ReadScalar(&header_crc));
    uint32_t computed = Crc32c(magic, 4);
    computed = Crc32cExtend(computed, &type_byte, 1);
    computed = Crc32cExtend(computed, &h.count, 8);
    computed = Crc32cExtend(computed, &h.chunk_bytes, 4);
    if (computed != header_crc) {
      return Status::Corruption("column file header crc mismatch (stored " +
                                CrcHex(header_crc) + ", computed " +
                                CrcHex(computed) + "): " + path);
    }
    if (h.chunk_bytes == 0 || h.chunk_bytes > (1u << 30)) {
      return Status::Corruption("column file: bad chunk size: " + path);
    }
  }
  if (type_byte >= kNumDataTypes) {
    return Status::Corruption("bad column type byte " +
                              std::to_string(type_byte) + ": " + path);
  }
  h.type = static_cast<DataType>(type_byte);
  if (h.count > kMaxPlausibleRows) {
    return Status::Corruption("column file: implausible row count " +
                              std::to_string(h.count) + ": " + path);
  }
  if (!h.legacy) {
    uint64_t payload = h.count * DataTypeSize(h.type);
    GEOCOL_RETURN_NOT_OK(
        r->ReadVector(&h.chunk_crcs, NumChunks(payload, h.chunk_bytes)));
  }
  return h;
}

/// The exact file-size check: rejects truncated and padded files (and a
/// forged row count) before anything is sized from the header.
Status CheckPayloadSize(const BinaryReader& r, const ColumnFileHeader& h,
                        const std::string& path) {
  const uint64_t payload = h.count * DataTypeSize(h.type);
  if (r.Remaining() != payload) {
    return Status::Corruption("column file size mismatch (payload " +
                              std::to_string(r.Remaining()) + " bytes, " +
                              std::to_string(payload) + " expected): " + path);
  }
  return Status::OK();
}

/// Reads (and, for v2, chunk-verifies) the payload into `out`. A verified
/// read also reports the whole-payload CRC, folded from the chunk CRCs
/// it checked.
Status ReadColumnPayload(BinaryReader* r, const ColumnFileHeader& h,
                         const std::string& path, bool verify, uint8_t* out,
                         std::optional<uint32_t>* payload_crc) {
  const uint64_t payload = h.count * DataTypeSize(h.type);
  if (h.legacy || !verify) {
    return r->ReadBytes(out, payload);
  }
  // Verify chunk by chunk, while the freshly read bytes are hot in cache.
  GEOCOL_METRIC_COUNTER(c_verifies, "geocol_crc_chunk_verifies_total");
  GEOCOL_METRIC_COUNTER(c_failures, "geocol_crc_failures_total");
  const Crc32cCombineOp op = Crc32cCombineOpFor(h.chunk_bytes);
  uint32_t folded = 0;
  for (uint64_t c = 0; c < h.chunk_crcs.size(); ++c) {
    uint64_t off = c * h.chunk_bytes;
    uint64_t len = std::min<uint64_t>(h.chunk_bytes, payload - off);
    GEOCOL_RETURN_NOT_OK(r->ReadBytes(out + off, len));
    uint32_t crc = Crc32c(out + off, len);
    c_verifies.Increment();
    if (crc != h.chunk_crcs[c]) {
      c_failures.Increment();
      return Status::Corruption("column chunk " + std::to_string(c) +
                                " crc mismatch (stored " +
                                CrcHex(h.chunk_crcs[c]) + ", computed " +
                                CrcHex(crc) + "): " + path);
    }
    folded = len == h.chunk_bytes ? Crc32cCombineWithOp(op, folded, crc)
                                  : Crc32cCombine(folded, crc, len);
  }
  *payload_crc = folded;
  return Status::OK();
}

/// The one payload reader: size-checks, then reads the payload straight
/// into `column`'s tail. Column files, AppendColumnFile and raw dumps all
/// come through here.
Status AppendPayload(BinaryReader* r, const ColumnFileHeader& h,
                     const std::string& path, bool verify, Column* column) {
  GEOCOL_RETURN_NOT_OK(CheckPayloadSize(*r, h, path));
  return column->AppendInPlace(
      h.count, [&](uint8_t* tail, std::optional<uint32_t>* tail_crc) {
        return ReadColumnPayload(r, h, path, verify, tail, tail_crc);
      });
}

}  // namespace

Status WriteColumnFile(const Column& column, const std::string& path) {
  if (column.paged()) {
    return Status::InvalidArgument(
        "WriteColumnFile: paged columns are read-only (reopen the table "
        "resident to rewrite)");
  }
  const uint8_t* payload = column.raw_data();
  const uint64_t payload_bytes = column.raw_size_bytes();
  const uint32_t chunk_bytes = kColumnChunkBytes;

  BufferWriter header;
  header.WriteBytes(kColumnMagicV2, 4);
  header.WriteScalar<uint8_t>(static_cast<uint8_t>(column.type()));
  header.WriteScalar<uint64_t>(column.size());
  header.WriteScalar<uint32_t>(chunk_bytes);
  uint32_t header_crc = Crc32c(header.buffer().data(), header.size());

  std::vector<uint32_t> chunk_crcs(NumChunks(payload_bytes, chunk_bytes));
  for (uint64_t c = 0; c < chunk_crcs.size(); ++c) {
    uint64_t off = c * uint64_t{chunk_bytes};
    uint64_t len = std::min<uint64_t>(chunk_bytes, payload_bytes - off);
    chunk_crcs[c] = Crc32c(payload + off, len);
  }

  BinaryWriter w;
  GEOCOL_RETURN_NOT_OK(w.OpenAtomic(path));
  Status st = [&]() -> Status {
    GEOCOL_RETURN_NOT_OK(w.WriteBytes(header.buffer().data(), header.size()));
    GEOCOL_RETURN_NOT_OK(w.WriteScalar<uint32_t>(header_crc));
    GEOCOL_RETURN_NOT_OK(w.WriteVector(chunk_crcs));
    for (uint64_t c = 0; c < chunk_crcs.size(); ++c) {
      uint64_t off = c * uint64_t{chunk_bytes};
      uint64_t len = std::min<uint64_t>(chunk_bytes, payload_bytes - off);
      GEOCOL_RETURN_NOT_OK(w.WriteBytes(payload + off, len));
    }
    return w.Commit();
  }();
  if (!st.ok()) w.Abandon();
  return st;
}

Result<ColumnPtr> ReadColumnFile(const std::string& path,
                                 const std::string& name,
                                 bool verify_checksums) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  GEOCOL_ASSIGN_OR_RETURN(ColumnFileHeader h, ReadColumnFileHeader(&r, path));
  auto col = std::make_shared<Column>(name, h.type);
  GEOCOL_RETURN_NOT_OK(
      AppendPayload(&r, h, path, verify_checksums, col.get()));
  return col;
}

Result<ColumnFileLayout> ReadColumnFileLayout(const std::string& path) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  GEOCOL_ASSIGN_OR_RETURN(ColumnFileHeader h, ReadColumnFileHeader(&r, path));
  if (h.legacy) {
    return Status::InvalidArgument(
        "legacy GCL1 file has no chunk checksums and cannot be opened "
        "paged: " + path);
  }
  GEOCOL_RETURN_NOT_OK(CheckPayloadSize(r, h, path));
  ColumnFileLayout layout;
  layout.type = h.type;
  layout.count = h.count;
  layout.chunk_bytes = h.chunk_bytes;
  layout.payload_offset = r.Tell();
  layout.chunk_crcs = std::move(h.chunk_crcs);
  return layout;
}

Status AppendColumnFile(const std::string& path, Column* column) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  GEOCOL_ASSIGN_OR_RETURN(ColumnFileHeader h, ReadColumnFileHeader(&r, path));
  if (h.type != column->type()) {
    return Status::InvalidArgument("type mismatch appending " + path);
  }
  return AppendPayload(&r, h, path, /*verify=*/true, column);
}

Status WriteRawDump(const Column& column, const std::string& path) {
  if (column.paged()) {
    return Status::InvalidArgument(
        "WriteRawDump: paged columns are read-only (reopen the table "
        "resident to dump)");
  }
  return WriteFileAtomic(path, column.raw_data(), column.raw_size_bytes());
}

Status AppendRawDump(const std::string& path, Column* column) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  const size_t width = column->width();
  if (r.Remaining() % width != 0) {
    return Status::Corruption("raw dump size not a multiple of value width: " +
                              path);
  }
  // A raw dump is a headerless, checksum-less payload: read it as one.
  ColumnFileHeader h;
  h.type = column->type();
  h.count = r.Remaining() / width;
  h.legacy = true;
  return AppendPayload(&r, h, path, /*verify=*/false, column);
}

Status WriteTableManifest(const std::string& dir, const TableManifest& m) {
  BufferWriter b;
  b.WriteBytes(kTableMagicV2, 4);
  b.WriteScalar<uint64_t>(m.generation);
  b.WriteString(m.table_name);
  b.WriteScalar<uint32_t>(static_cast<uint32_t>(m.columns.size()));
  for (const auto& col : m.columns) {
    b.WriteString(col.name);
    b.WriteScalar<uint8_t>(static_cast<uint8_t>(col.type));
    b.WriteString(col.filename);
  }
  uint32_t crc = Crc32c(b.buffer().data(), b.size());
  b.WriteScalar<uint32_t>(crc);
  return WriteFileAtomic(dir + "/schema.gct", b.buffer().data(), b.size());
}

Result<TableManifest> ReadTableManifest(const std::string& dir) {
  const std::string path = dir + "/schema.gct";
  std::vector<uint8_t> bytes;
  GEOCOL_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  if (bytes.size() < 4) {
    return Status::Corruption("table manifest too small: " + path);
  }

  TableManifest m;
  size_t body_size = bytes.size();
  if (std::memcmp(bytes.data(), kTableMagicV1, 4) == 0) {
    m.legacy = true;
  } else if (std::memcmp(bytes.data(), kTableMagicV2, 4) == 0) {
    if (bytes.size() < 8) {
      return Status::Corruption("table manifest too small: " + path);
    }
    body_size = bytes.size() - 4;
    uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + body_size, 4);
    uint32_t computed = Crc32c(bytes.data(), body_size);
    if (stored != computed) {
      return Status::Corruption("table manifest crc mismatch (stored " +
                                CrcHex(stored) + ", computed " +
                                CrcHex(computed) + "): " + path);
    }
  } else {
    return Status::Corruption("bad table manifest magic: " + path);
  }

  BufferReader r(bytes.data(), body_size);
  char magic[4];
  GEOCOL_RETURN_NOT_OK(r.ReadBytes(magic, 4));
  if (!m.legacy) GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.generation));
  GEOCOL_RETURN_NOT_OK(r.ReadString(&m.table_name));
  uint32_t ncols = 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ncols));
  // Each column entry is at least 9 bytes; with the 4096 cap a corrupt
  // count fails here instead of allocating.
  if (ncols > 4096 || ncols > r.remaining()) {
    return Status::Corruption("implausible column count " +
                              std::to_string(ncols) + ": " + path);
  }
  m.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    TableManifest::ManifestColumn col;
    GEOCOL_RETURN_NOT_OK(r.ReadString(&col.name));
    uint8_t type_byte = 0;
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&type_byte));
    if (type_byte >= kNumDataTypes) {
      return Status::Corruption("bad column type in manifest: " + path);
    }
    col.type = static_cast<DataType>(type_byte);
    if (!m.legacy) GEOCOL_RETURN_NOT_OK(r.ReadString(&col.filename));
    m.columns.push_back(std::move(col));
  }
  return m;
}

void CleanStaleTableFiles(const std::string& dir, const TableManifest& keep) {
  std::vector<std::string> files;
  for (const char* suffix : {".gcl", ".gcz", ".tmp"}) {
    ListFiles(dir, suffix, &files);
  }
  for (const std::string& full : files) {
    std::string base = full.substr(full.find_last_of('/') + 1);
    if (base == "schema.gct") continue;
    bool referenced = false;
    for (const auto& col : keep.columns) {
      const std::string& fname =
          col.filename.empty() ? col.name + ".gcl" : col.filename;
      if (base == fname) {
        referenced = true;
        break;
      }
    }
    if (!referenced) RemoveFile(full);
  }
}

Status WriteTableDir(const FlatTable& table, const std::string& dir,
                     ThreadPool* pool) {
  GEOCOL_RETURN_NOT_OK(table.Validate());
  GEOCOL_RETURN_NOT_OK(MakeDir(dir));
  // Write the next generation's column files under fresh names; the files
  // the current manifest references are never touched, so the old table
  // stays fully readable until the manifest swap below.
  uint64_t gen = 1;
  if (PathExists(dir + "/schema.gct")) {
    auto old = ReadTableManifest(dir);
    if (old.ok()) gen = old->generation + 1;
  }
  TableManifest m;
  m.table_name = table.name();
  m.generation = gen;
  for (const auto& col : table.columns()) {
    m.columns.push_back({col->name(), col->type(),
                         col->name() + ".g" + std::to_string(gen) + ".gcl"});
  }
  auto write = [&](size_t c) {
    return WriteColumnFile(*table.column(c), dir + "/" + m.columns[c].filename);
  };
  if (pool == nullptr) {
    for (size_t c = 0; c < m.columns.size(); ++c) {
      GEOCOL_RETURN_NOT_OK(write(c));
    }
  } else {
    std::vector<Status> written(m.columns.size());
    pool->ParallelFor(written.size(),
                      [&](size_t c) { written[c] = write(c); });
    for (const Status& st : written) GEOCOL_RETURN_NOT_OK(st);
  }
  GEOCOL_RETURN_NOT_OK(WriteTableManifest(dir, m));  // the commit point
  CleanStaleTableFiles(dir, m);
  return Status::OK();
}

Result<FlatTable> ReadTableDir(const std::string& dir, bool verify_checksums) {
  GEOCOL_ASSIGN_OR_RETURN(TableManifest m, ReadTableManifest(dir));
  FlatTable table(m.table_name);
  for (const auto& mc : m.columns) {
    const std::string fname =
        mc.filename.empty() ? mc.name + ".gcl" : mc.filename;
    GEOCOL_ASSIGN_OR_RETURN(
        ColumnPtr col,
        ReadColumnFile(dir + "/" + fname, mc.name, verify_checksums));
    if (col->type() != mc.type) {
      return Status::Corruption("manifest/file type mismatch for " + mc.name);
    }
    GEOCOL_RETURN_NOT_OK(table.AddColumn(std::move(col)));
  }
  GEOCOL_RETURN_NOT_OK(table.Validate());
  return table;
}

}  // namespace geocol
