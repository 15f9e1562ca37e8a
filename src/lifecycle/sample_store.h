// SampleStore: the durable traffic log behind continuous learning.
//
// scis_serve taps every admitted impute request into this append-only,
// segmented row log; the DriftController later replays it to re-estimate
// the SSE confidence P(D(θ_n, θ_N) ≤ ε) against what the fleet actually
// served. The log is designed around two failure modes of a production
// sidecar:
//
//   * Crashes mid-write. Every record is framed
//     [u32 len][u32 crc32(payload)][payload] and written with a single
//     fwrite + fflush, so a crash can only tear the tail record of the
//     newest segment. Open() re-scans all segments, truncates a torn or
//     corrupt tail, and resumes appending after the last intact record;
//     everything that was fully flushed replays bit-identically (the f64
//     bit patterns round-trip exactly, NaN missing markers included).
//   * Unbounded growth. Segments rotate at max_segment_bytes and the
//     oldest segments are deleted once more than max_segments are
//     retained — the store holds a sliding window of recent traffic while
//     total_rows() keeps counting cumulatively (each segment header
//     carries the row count that preceded it), so the SSE estimate's N
//     keeps growing even after compaction.
//
// Replay order is segment order then record order — a pure function of the
// store content, so two replays (or replays on different machines) see the
// same rows in the same order. The serving hot path never calls Append
// directly: SampleTap is the bounded, non-blocking hook the server invokes,
// with a background thread draining into the store (overflow drops rows and
// counts them rather than ever blocking the event loop).
#ifndef SCIS_LIFECYCLE_SAMPLE_STORE_H_
#define SCIS_LIFECYCLE_SAMPLE_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace scis::lifecycle {

struct SampleStoreOptions {
  size_t max_segment_bytes = 1u << 20;  // rotate the active segment past this
  size_t max_segments = 64;             // compaction: delete oldest beyond this
};

class SampleStore {
 public:
  // Opens (creating the directory if needed) a store of `cols`-wide rows.
  // Recovery runs here: segments are scanned, a torn/corrupt tail is
  // truncated, and appends resume after the last intact record. Fails when
  // an existing store was written with a different column count.
  static Result<std::unique_ptr<SampleStore>> Open(
      const std::string& dir, size_t cols, SampleStoreOptions opts = {});

  ~SampleStore();

  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;

  // Appends one record (a request's rows, raw units, quiet NaN = missing).
  // One fwrite + fflush; rotates/compacts as configured. Thread-safe.
  Status Append(const Matrix& rows);

  // Streams every intact record in deterministic order (segment order, then
  // record order within each segment). Thread-safe (appends are held off
  // for the duration).
  Status Replay(const std::function<void(const Matrix&)>& fn) const;

  size_t cols() const { return cols_; }
  // Rows currently retained (intact records across live segments).
  size_t num_rows() const;
  // Rows ever appended, including rows in compacted-away segments — the N
  // of the SSE confidence estimate. Monotone across restarts (recovered
  // from segment headers; rows lost to a torn tail are not counted).
  size_t total_rows() const;
  size_t num_segments() const;
  // Records dropped during recovery because they were torn or failed crc.
  size_t torn_records() const { return torn_records_; }

  const std::string& dir() const { return dir_; }

 private:
  struct Segment {
    uint64_t index = 0;     // monotone file index (survives compaction)
    uint64_t base_rows = 0; // cumulative rows appended before this segment
    size_t rows = 0;        // intact rows in this segment
    size_t bytes = 0;       // file size up to the last intact record
  };

  SampleStore() = default;

  std::string SegmentPath(uint64_t index) const;
  Status OpenActive();    // opens segments_.back() for append
  Status Rotate();        // closes active, starts segment index+1
  void CompactLocked();   // deletes oldest segments beyond max_segments

  std::string dir_;
  size_t cols_ = 0;
  SampleStoreOptions opts_;
  size_t torn_records_ = 0;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;
  FILE* active_ = nullptr;  // append handle for segments_.back()
};

// The serving-side hook: a bounded queue in front of a SampleStore with a
// background writer thread. Offer() never blocks on disk — it copies the
// rows under a brief mutex and returns; when the queue is at capacity the
// record is dropped and counted (lifecycle.tap_dropped_rows) instead of
// ever stalling the event loop.
class SampleTap {
 public:
  SampleTap(std::shared_ptr<SampleStore> store, size_t capacity_rows = 8192);
  ~SampleTap();  // Stop()

  SampleTap(const SampleTap&) = delete;
  SampleTap& operator=(const SampleTap&) = delete;

  // Non-blocking enqueue of one request's rows.
  void Offer(const Matrix& rows);

  // Blocks until everything queued so far has been written to the store
  // (tests and orderly shutdown).
  void Drain();

  // Drains, then stops the writer thread. Idempotent.
  void Stop();

  uint64_t dropped_rows() const;
  uint64_t stored_rows() const;

 private:
  void WriterLoop();

  std::shared_ptr<SampleStore> store_;
  size_t capacity_rows_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the writer
  std::condition_variable cv_idle_;  // wakes Drain()
  std::deque<Matrix> pending_;
  size_t pending_rows_ = 0;
  bool writing_ = false;
  bool stop_ = false;
  uint64_t dropped_rows_ = 0;
  uint64_t stored_rows_ = 0;
  std::thread writer_;
};

}  // namespace scis::lifecycle

#endif  // SCIS_LIFECYCLE_SAMPLE_STORE_H_
