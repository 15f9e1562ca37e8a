#include "nn/serialize.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/crc32.h"

namespace scis {
namespace {

constexpr char kMagic[8] = {'s', 'c', 'i', 's', 'c', 'k', '3', 'c'};
constexpr uint32_t kEndianTag = 0x01020304;
constexpr size_t kBlobAlign = 64;  // bytes; params start cache-line aligned
// magic | endian tag | header CRC — the prefix no checksum covers.
constexpr size_t kHeaderCrcStart = sizeof(kMagic) + 2 * sizeof(uint32_t);
// ... | blob CRC | blob offset — the fixed fields before the schema.
constexpr size_t kFixedBytes = kHeaderCrcStart + sizeof(uint32_t) +
                               sizeof(uint64_t);

void PutBytes(const void* p, size_t n, std::string* out) {
  out->append(static_cast<const char*>(p), n);
}
void PutU32(uint32_t v, std::string* out) { PutBytes(&v, sizeof(v), out); }
void PutU64(uint64_t v, std::string* out) { PutBytes(&v, sizeof(v), out); }
void PutStr(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  PutBytes(s.data(), s.size(), out);
}

uint32_t Crc32Of(const std::string& s) {
  return Crc32(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

// Bounds-checked reader over the mapped bytes; every Get fails cleanly on a
// truncated or hostile file instead of walking off the mapping.
class BinReader {
 public:
  BinReader(const uint8_t* data, size_t len, size_t at)
      : data_(data), len_(len), at_(at) {}

  bool GetBytes(void* out, size_t n) {
    if (len_ - at_ < n) return false;
    std::memcpy(out, data_ + at_, n);
    at_ += n;
    return true;
  }
  bool GetU32(uint32_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetBytes(v, sizeof(*v)); }
  bool GetStr(std::string* s, size_t max_len = 1u << 20) {
    uint32_t n = 0;
    if (!GetU32(&n) || n > max_len || len_ - at_ < n) return false;
    s->assign(reinterpret_cast<const char*>(data_ + at_), n);
    at_ += n;
    return true;
  }
  bool GetF64Array(double* out, size_t count) {
    return GetBytes(out, count * sizeof(double));
  }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t at_;
};

}  // namespace

Status SaveCheckpointBinary(const ParamStore& store, const CheckpointMeta& meta,
                            const std::string& path) {
  if (meta.model.empty()) {
    return Status::InvalidArgument("checkpoint meta needs a model tag");
  }
  if (meta.columns.empty() || meta.norm_lo.size() != meta.columns.size() ||
      meta.norm_hi.size() != meta.columns.size()) {
    return Status::InvalidArgument(
        "checkpoint meta columns/normalizer sizes disagree");
  }
  // The value blob, each param padded to a 64-byte boundary.
  std::string blob;
  std::string table;  // per-param entries of the header
  for (size_t id = 0; id < store.size(); ++id) {
    const Matrix& m = store.value(id);
    PutStr(store.name(id), &table);
    PutU64(m.rows(), &table);
    PutU64(m.cols(), &table);
    PutU64(blob.size() / sizeof(double), &table);
    PutBytes(m.data(), m.size() * sizeof(double), &blob);
    blob.append((kBlobAlign - blob.size() % kBlobAlign) % kBlobAlign, '\0');
  }

  std::string schema;
  PutStr(meta.model, &schema);
  PutU32(static_cast<uint32_t>(meta.columns.size()), &schema);
  for (const CheckpointColumn& c : meta.columns) {
    PutU32(static_cast<uint32_t>(c.kind), &schema);
    PutU32(static_cast<uint32_t>(c.num_categories), &schema);
    PutStr(c.name, &schema);
  }
  PutBytes(meta.norm_lo.data(), meta.norm_lo.size() * sizeof(double), &schema);
  PutBytes(meta.norm_hi.data(), meta.norm_hi.size() * sizeof(double), &schema);
  PutU32(static_cast<uint32_t>(store.size()), &schema);
  schema += table;
  // Pad so the blob starts 64-byte aligned in the file (mmap bases are
  // page-aligned, so views into the mapping are too).
  const size_t unpadded = kFixedBytes + schema.size();
  schema.append((kBlobAlign - unpadded % kBlobAlign) % kBlobAlign, '\0');

  // The header CRC covers everything from the blob CRC to the blob.
  std::string covered;
  PutU32(Crc32Of(blob), &covered);
  PutU64(kFixedBytes + schema.size(), &covered);
  covered += schema;
  std::string head(kMagic, sizeof(kMagic));
  PutU32(kEndianTag, &head);
  PutU32(Crc32Of(covered), &head);

  // Write a sibling file and rename it over `path`: a server mapping the
  // old file keeps its inode, so re-saving a served checkpoint (then
  // SIGHUP) never truncates or rewrites weights under live traffic.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp + " for writing");
    for (const std::string* part : {&head, &covered, &blob}) {
      out.write(part->data(), static_cast<std::streamsize>(part->size()));
    }
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

MappedCheckpoint::~MappedCheckpoint() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
}

Result<std::shared_ptr<const MappedCheckpoint>> MappedCheckpoint::Map(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IoError("stat " + path + " failed");
  }
  const size_t len = static_cast<size_t>(st.st_size);
  if (len < kFixedBytes) {
    ::close(fd);
    return Status::InvalidArgument(path + " is too short to be a checkpoint");
  }
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) return Status::IoError("mmap " + path + " failed");

  auto ckpt = std::shared_ptr<MappedCheckpoint>(new MappedCheckpoint());
  ckpt->map_base_ = base;
  ckpt->map_len_ = len;
  const uint8_t* bytes = static_cast<const uint8_t*>(base);

  BinReader fixed(bytes, len, 0);
  char magic[sizeof(kMagic)];
  uint32_t endian = 0, header_crc = 0, blob_crc = 0;
  uint64_t blob_start = 0;
  fixed.GetBytes(magic, sizeof(magic));
  fixed.GetU32(&endian);
  fixed.GetU32(&header_crc);
  fixed.GetU32(&blob_crc);
  fixed.GetU64(&blob_start);
  if (std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a scis checkpoint (magic scisck3c): " +
                                   path);
  }
  if (endian != kEndianTag) {
    return Status::InvalidArgument("checkpoint endianness mismatch: " + path);
  }
  // Verify both checksums before trusting any field they cover.
  if (blob_start < kFixedBytes || blob_start > len ||
      blob_start % kBlobAlign != 0 ||
      Crc32(bytes + kHeaderCrcStart, blob_start - kHeaderCrcStart) !=
          header_crc) {
    return Status::InvalidArgument("checkpoint header checksum mismatch: " +
                                   path);
  }
  if (Crc32(bytes + blob_start, len - blob_start) != blob_crc) {
    return Status::InvalidArgument("checkpoint weight checksum mismatch: " +
                                   path);
  }

  BinReader r(bytes, blob_start, kFixedBytes);
  CheckpointMeta& meta = ckpt->meta_;
  uint32_t d = 0;
  // Each column takes at least 12 schema bytes plus two normalizer doubles,
  // which bounds d before anything is sized by it.
  if (!r.GetStr(&meta.model) || !r.GetU32(&d) || d == 0 ||
      d > blob_start / (3 * sizeof(uint32_t) + 2 * sizeof(double))) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  meta.columns.resize(d);
  for (CheckpointColumn& c : meta.columns) {
    uint32_t kind = 0, cats = 0;
    if (!r.GetU32(&kind) || !r.GetU32(&cats) || !r.GetStr(&c.name)) {
      return Status::InvalidArgument("truncated column schema in " + path);
    }
    c.kind = static_cast<int>(kind);
    c.num_categories = static_cast<int>(cats);
  }
  meta.norm_lo.resize(d);
  meta.norm_hi.resize(d);
  if (!r.GetF64Array(meta.norm_lo.data(), d) ||
      !r.GetF64Array(meta.norm_hi.data(), d)) {
    return Status::InvalidArgument("truncated normalizer stats in " + path);
  }
  uint32_t count = 0;
  if (!r.GetU32(&count) || count > (1u << 20)) {
    return Status::InvalidArgument("bad param count in " + path);
  }
  const size_t blob_doubles = (len - blob_start) / sizeof(double);
  const double* blob = reinterpret_cast<const double*>(bytes + blob_start);
  ckpt->params_.reserve(count);
  for (uint32_t id = 0; id < count; ++id) {
    ParamView view;
    uint64_t rows = 0, cols = 0, offset = 0;
    if (!r.GetStr(&view.name) || !r.GetU64(&rows) || !r.GetU64(&cols) ||
        !r.GetU64(&offset)) {
      return Status::InvalidArgument("truncated param table in " + path);
    }
    // Overflow-safe bounds check against the mapped blob.
    if (rows == 0 || cols == 0 || cols > blob_doubles ||
        rows > blob_doubles / cols || offset > blob_doubles - rows * cols) {
      return Status::InvalidArgument("param '" + view.name +
                                     "' overruns the value blob in " + path);
    }
    view.rows = static_cast<size_t>(rows);
    view.cols = static_cast<size_t>(cols);
    view.data = blob + offset;
    ckpt->params_.push_back(std::move(view));
  }
  return std::shared_ptr<const MappedCheckpoint>(std::move(ckpt));
}

Checkpoint MappedCheckpoint::ToCheckpoint() const {
  Checkpoint ckpt;
  ckpt.meta = meta_;
  ckpt.params.reserve(params_.size());
  for (const ParamView& p : params_) {
    Matrix m(p.rows, p.cols);
    std::memcpy(m.data(), p.data, p.rows * p.cols * sizeof(double));
    ckpt.params.push_back({p.name, std::move(m)});
  }
  return ckpt;
}

Result<Checkpoint> LoadCheckpoint(const std::string& path) {
  SCIS_ASSIGN_OR_RETURN(std::shared_ptr<const MappedCheckpoint> mapped,
                        MappedCheckpoint::Map(path));
  return mapped->ToCheckpoint();
}

}  // namespace scis
