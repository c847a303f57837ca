#include "las/las_reader.h"

#include <cstring>

#include "las/laz.h"
#include "util/binary_io.h"

namespace geocol {

namespace {
constexpr char kLasMagic[4] = {'G', 'L', 'A', 'S'};

Status ReadHeader(BinaryReader* r, LasHeader* h) {
  char magic[4];
  GEOCOL_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::memcmp(magic, kLasMagic, 4) != 0) {
    return Status::Corruption("not a GLAS tile (bad magic)");
  }
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h->point_count));
  for (double& v : h->scale) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  for (double& v : h->offset) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  for (double& v : h->min_world) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  for (double& v : h->max_world) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h->record_length));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h->compressed));
  if (h->record_length != kLasRecordBytes) {
    return Status::Corruption("unsupported record length " +
                              std::to_string(h->record_length));
  }
  for (int a = 0; a < 3; ++a) {
    if (h->scale[a] <= 0.0) return Status::Corruption("non-positive scale");
  }
  // The point count is untrusted: bound it by the bytes that follow the
  // header, without multiplying it, so no caller sizes anything from a
  // count the file cannot hold.
  const uint64_t body = r->Remaining();
  const bool fits =
      h->compressed != 0
          ? body >= sizeof(uint64_t) &&
                LazCountFits(h->point_count, body - sizeof(uint64_t))
          : h->point_count <= body / kLasRecordBytes;
  if (!fits) {
    return Status::Corruption("point count " +
                              std::to_string(h->point_count) +
                              " exceeds what the " + std::to_string(body) +
                              " bytes after the header can hold");
  }
  return Status::OK();
}
}  // namespace

Result<LasHeader> ReadLasHeader(const std::string& path) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  LasHeader h;
  GEOCOL_RETURN_NOT_OK(ReadHeader(&r, &h));
  return h;
}

Result<LasTile> ReadLasFile(const std::string& path) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  LasTile tile;
  GEOCOL_RETURN_NOT_OK(ReadHeader(&r, &tile.header));
  uint64_t n = tile.header.point_count;
  if (tile.header.compressed != 0) {
    uint64_t payload_size = 0;
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&payload_size));
    if (payload_size > r.Remaining()) {
      return Status::Corruption("LAZ payload size exceeds file size");
    }
    std::vector<uint8_t> payload(payload_size);
    GEOCOL_RETURN_NOT_OK(r.ReadBytes(payload.data(), payload.size()));
    GEOCOL_RETURN_NOT_OK(LazDecompress(payload, n, &tile.points));
  } else {
    // ReadHeader bounded n by the bytes remaining, so this cannot wrap.
    std::vector<uint8_t> buf;
    GEOCOL_RETURN_NOT_OK(r.ReadVector(&buf, n * kLasRecordBytes));
    tile.points.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      DeserializeRecord(buf.data() + i * kLasRecordBytes, &tile.points[i]);
    }
  }
  return tile;
}

}  // namespace geocol
