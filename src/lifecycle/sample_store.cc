#include "lifecycle/sample_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <filesystem>

#include "common/check.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace scis::lifecycle {

namespace {

namespace fs = std::filesystem;

// Segment layout:
//   header (24 bytes): "scislg1\n" | u32 version=1 | u32 cols | u64 base_rows
//   record: u32 payload_len | u32 crc32(payload) | payload
//   payload: u32 rows | u32 cols | rows*cols f64 (little-endian bit patterns)
constexpr char kMagic[8] = {'s', 'c', 'i', 's', 'l', 'g', '1', '\n'};
constexpr size_t kHeaderBytes = 24;
constexpr size_t kRecordHeaderBytes = 8;
// Records come from wire-capped requests (16 MiB); anything larger in a
// length field is corruption, not data.
constexpr uint32_t kMaxRecordPayload = 64u << 20;

struct StoreMetrics {
  obs::Counter* appended_rows;
  obs::Counter* torn_records;
  obs::Counter* compacted_segments;
  obs::Counter* tap_dropped_rows;
  obs::Gauge* store_rows;

  static StoreMetrics& Get() {
    static StoreMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return StoreMetrics{r.GetCounter("lifecycle.appended_rows"),
                          r.GetCounter("lifecycle.torn_records"),
                          r.GetCounter("lifecycle.compacted_segments"),
                          r.GetCounter("lifecycle.tap_dropped_rows"),
                          r.GetGauge("lifecycle.store_rows")};
    }();
    return m;
  }
};

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         static_cast<uint64_t>(ReadU32(p + 4)) << 32;
}

std::vector<uint8_t> EncodePayload(const Matrix& rows) {
  std::vector<uint8_t> payload;
  payload.reserve(8 + rows.size() * sizeof(double));
  PutU32(&payload, static_cast<uint32_t>(rows.rows()));
  PutU32(&payload, static_cast<uint32_t>(rows.cols()));
  for (size_t k = 0; k < rows.size(); ++k) {
    uint64_t bits;
    std::memcpy(&bits, &rows.data()[k], sizeof(bits));
    PutU64(&payload, bits);
  }
  return payload;
}

Result<Matrix> DecodePayload(const uint8_t* p, size_t n, size_t want_cols) {
  if (n < 8) return Status::IoError("record payload shorter than its header");
  const uint32_t rows = ReadU32(p);
  const uint32_t cols = ReadU32(p + 4);
  if (cols != want_cols) {
    return Status::IoError("record cols " + std::to_string(cols) +
                           " != store cols " + std::to_string(want_cols));
  }
  const size_t want =
      8 + static_cast<size_t>(rows) * cols * sizeof(double);
  if (n != want) return Status::IoError("record payload size mismatch");
  Matrix m(rows, cols);
  for (size_t k = 0; k < m.size(); ++k) {
    const uint64_t bits = ReadU64(p + 8 + k * sizeof(double));
    std::memcpy(&m.data()[k], &bits, sizeof(bits));
  }
  return m;
}

}  // namespace

std::string SampleStore::SegmentPath(uint64_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%08" PRIu64 ".log", index);
  return dir_ + "/" + name;
}

Result<std::unique_ptr<SampleStore>> SampleStore::Open(
    const std::string& dir, size_t cols, SampleStoreOptions opts) {
  if (cols == 0) return Status::InvalidArgument("store needs cols >= 1");
  if (opts.max_segment_bytes < kHeaderBytes + kRecordHeaderBytes + 16) {
    return Status::InvalidArgument("max_segment_bytes too small");
  }
  if (opts.max_segments == 0) {
    return Status::InvalidArgument("max_segments must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }

  auto store = std::unique_ptr<SampleStore>(new SampleStore());
  store->dir_ = dir;
  store->cols_ = cols;
  store->opts_ = opts;

  // Discover segments (sorted by index — the zero-padded names sort
  // lexicographically, but parse the index to be explicit).
  std::vector<uint64_t> indices;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    uint64_t idx = 0;
    if (std::sscanf(name.c_str(), "seg-%08" PRIu64 ".log", &idx) == 1) {
      indices.push_back(idx);
    }
  }
  std::sort(indices.begin(), indices.end());

  // Recovery scan: validate each segment, truncating the newest one after
  // its last intact record.
  for (size_t s = 0; s < indices.size(); ++s) {
    const bool last = (s + 1 == indices.size());
    const std::string path = store->SegmentPath(indices[s]);
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Status::IoError("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long fsize = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(std::max(0L, fsize)));
    const size_t got = bytes.empty()
                           ? 0
                           : std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    bytes.resize(got);

    Segment seg;
    seg.index = indices[s];
    if (bytes.size() < kHeaderBytes ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0 ||
        ReadU32(bytes.data() + 8) != 1) {
      // A segment without a full valid header was torn at creation: drop it
      // when it is the newest, refuse the store otherwise (mid-history
      // damage is not a crash shape this log produces).
      if (last) {
        ++store->torn_records_;
        fs::remove(path, ec);
        continue;
      }
      return Status::IoError("segment " + path + " has a corrupt header");
    }
    const uint32_t seg_cols = ReadU32(bytes.data() + 12);
    if (seg_cols != cols) {
      return Status::InvalidArgument(
          "store at " + dir + " holds " + std::to_string(seg_cols) +
          "-col rows, asked for " + std::to_string(cols));
    }
    seg.base_rows = ReadU64(bytes.data() + 16);

    size_t at = kHeaderBytes;
    while (at + kRecordHeaderBytes <= bytes.size()) {
      const uint32_t len = ReadU32(bytes.data() + at);
      const uint32_t crc = ReadU32(bytes.data() + at + 4);
      if (len < 8 || len > kMaxRecordPayload ||
          at + kRecordHeaderBytes + len > bytes.size() ||
          Crc32(bytes.data() + at + kRecordHeaderBytes, len) != crc) {
        break;  // torn or corrupt: everything from here on is unusable
      }
      Result<Matrix> m = DecodePayload(bytes.data() + at + kRecordHeaderBytes,
                                       len, cols);
      if (!m.ok()) break;
      seg.rows += m.value().rows();
      at += kRecordHeaderBytes + len;
    }
    if (at != bytes.size()) {
      ++store->torn_records_;
      StoreMetrics::Get().torn_records->Add();
      SCIS_LOG(Warning) << "sample store " << path << ": dropping "
                        << bytes.size() - at << " trailing bytes ("
                        << (last ? "torn tail" : "mid-history corruption")
                        << ")";
      if (last) {
        // Truncate so appends resume on a clean boundary.
        if (::truncate(path.c_str(), static_cast<off_t>(at)) != 0) {
          return Status::IoError("cannot truncate " + path + ": " +
                                 std::strerror(errno));
        }
      }
    }
    seg.bytes = at;
    store->segments_.push_back(seg);
  }

  if (store->segments_.empty()) {
    Segment seg;
    seg.index = 0;
    seg.base_rows = 0;
    store->segments_.push_back(seg);
    // Write the fresh header.
    FILE* f = std::fopen(store->SegmentPath(0).c_str(), "wb");
    if (f == nullptr) {
      return Status::IoError("cannot create " + store->SegmentPath(0));
    }
    std::vector<uint8_t> header(kMagic, kMagic + sizeof(kMagic));
    PutU32(&header, 1);
    PutU32(&header, static_cast<uint32_t>(cols));
    PutU64(&header, 0);
    std::fwrite(header.data(), 1, header.size(), f);
    std::fflush(f);
    store->segments_.back().bytes = header.size();
    store->active_ = f;
  } else if (Status st = store->OpenActive(); !st.ok()) {
    return st;
  }
  StoreMetrics::Get().store_rows->Set(
      static_cast<double>(store->num_rows()));
  return store;
}

Status SampleStore::OpenActive() {
  const std::string path = SegmentPath(segments_.back().index);
  // "r+b" preserves the intact prefix; position at the recovered end.
  FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return Status::IoError("cannot reopen " + path);
  if (std::fseek(f, static_cast<long>(segments_.back().bytes), SEEK_SET) !=
      0) {
    std::fclose(f);
    return Status::IoError("cannot seek in " + path);
  }
  active_ = f;
  return Status::OK();
}

SampleStore::~SampleStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ != nullptr) {
    std::fflush(active_);
    std::fclose(active_);
    active_ = nullptr;
  }
}

Status SampleStore::Rotate() {
  // Called with mu_ held.
  std::fflush(active_);
  std::fclose(active_);
  active_ = nullptr;

  Segment next;
  next.index = segments_.back().index + 1;
  next.base_rows = segments_.back().base_rows + segments_.back().rows;
  const std::string path = SegmentPath(next.index);
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  std::vector<uint8_t> header(kMagic, kMagic + sizeof(kMagic));
  PutU32(&header, 1);
  PutU32(&header, static_cast<uint32_t>(cols_));
  PutU64(&header, next.base_rows);
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    std::fclose(f);
    return Status::IoError("cannot write header of " + path);
  }
  std::fflush(f);
  next.bytes = header.size();
  segments_.push_back(next);
  active_ = f;
  CompactLocked();
  return Status::OK();
}

void SampleStore::CompactLocked() {
  while (segments_.size() > opts_.max_segments) {
    std::error_code ec;
    fs::remove(SegmentPath(segments_.front().index), ec);
    segments_.erase(segments_.begin());
    StoreMetrics::Get().compacted_segments->Add();
  }
}

Status SampleStore::Append(const Matrix& rows) {
  if (rows.rows() == 0) return Status::OK();
  if (rows.cols() != cols_) {
    return Status::InvalidArgument(
        "append of " + std::to_string(rows.cols()) + "-col rows to a " +
        std::to_string(cols_) + "-col store");
  }
  const std::vector<uint8_t> payload = EncodePayload(rows);
  std::vector<uint8_t> record;
  record.reserve(kRecordHeaderBytes + payload.size());
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, Crc32(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());

  std::lock_guard<std::mutex> lock(mu_);
  if (active_ == nullptr) return Status::Unavailable("store is closed");
  if (segments_.back().bytes + record.size() > opts_.max_segment_bytes &&
      segments_.back().rows > 0) {
    if (Status st = Rotate(); !st.ok()) return st;
  }
  // One write + flush: a crash tears at most this record, never an earlier
  // one — the invariant recovery relies on.
  if (std::fwrite(record.data(), 1, record.size(), active_) !=
      record.size()) {
    return Status::IoError("short write to segment " +
                           std::to_string(segments_.back().index));
  }
  if (std::fflush(active_) != 0) {
    return Status::IoError("flush failed on segment " +
                           std::to_string(segments_.back().index));
  }
  segments_.back().bytes += record.size();
  segments_.back().rows += rows.rows();
  StoreMetrics& m = StoreMetrics::Get();
  m.appended_rows->Add(rows.rows());
  uint64_t retained = 0;
  for (const Segment& s : segments_) retained += s.rows;
  m.store_rows->Set(static_cast<double>(retained));
  return Status::OK();
}

Status SampleStore::Replay(
    const std::function<void(const Matrix&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (active_ != nullptr) std::fflush(active_);
  for (const Segment& seg : segments_) {
    const std::string path = SegmentPath(seg.index);
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Status::IoError("cannot open " + path);
    std::vector<uint8_t> bytes(seg.bytes);
    const size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (got != bytes.size()) {
      return Status::IoError("short read from " + path);
    }
    size_t at = kHeaderBytes;
    while (at + kRecordHeaderBytes <= bytes.size()) {
      const uint32_t len = ReadU32(bytes.data() + at);
      const uint32_t crc = ReadU32(bytes.data() + at + 4);
      if (len < 8 || len > kMaxRecordPayload ||
          at + kRecordHeaderBytes + len > bytes.size() ||
          Crc32(bytes.data() + at + kRecordHeaderBytes, len) != crc) {
        return Status::IoError("record corrupted after recovery in " + path);
      }
      Result<Matrix> m = DecodePayload(bytes.data() + at + kRecordHeaderBytes,
                                       len, cols_);
      if (!m.ok()) return m.status();
      fn(m.value());
      at += kRecordHeaderBytes + len;
    }
  }
  return Status::OK();
}

size_t SampleStore::num_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Segment& s : segments_) n += s.rows;
  return n;
}

size_t SampleStore::total_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.empty()) return 0;
  return segments_.back().base_rows + segments_.back().rows;
}

size_t SampleStore::num_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

SampleTap::SampleTap(std::shared_ptr<SampleStore> store, size_t capacity_rows)
    : store_(std::move(store)), capacity_rows_(capacity_rows) {
  SCIS_CHECK(store_ != nullptr);
  writer_ = std::thread([this] { WriterLoop(); });
}

SampleTap::~SampleTap() { Stop(); }

void SampleTap::Offer(const Matrix& rows) {
  if (rows.rows() == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || pending_rows_ + rows.rows() > capacity_rows_) {
      dropped_rows_ += rows.rows();
      StoreMetrics::Get().tap_dropped_rows->Add(rows.rows());
      return;
    }
    pending_rows_ += rows.rows();
    pending_.push_back(rows);
  }
  cv_.notify_one();
}

void SampleTap::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    Matrix rows = std::move(pending_.front());
    pending_.pop_front();
    writing_ = true;
    lock.unlock();
    const Status st = store_->Append(rows);
    lock.lock();
    writing_ = false;
    pending_rows_ -= rows.rows();
    if (st.ok()) {
      stored_rows_ += rows.rows();
    } else {
      dropped_rows_ += rows.rows();
      SCIS_LOG(Warning) << "sample tap append failed: " << st.ToString();
    }
    if (pending_.empty() && !writing_) cv_idle_.notify_all();
  }
}

void SampleTap::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return pending_.empty() && !writing_; });
}

void SampleTap::Stop() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      if (!writer_.joinable()) return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

uint64_t SampleTap::dropped_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_rows_;
}

uint64_t SampleTap::stored_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stored_rows_;
}

}  // namespace scis::lifecycle
