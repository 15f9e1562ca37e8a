// src/lifecycle units: SampleStore durability (torn-tail crash recovery as
// a seeded property), rotation/compaction accounting, the non-blocking
// SampleTap, CheckpointPublisher rollback, model rebuild, the shared
// serve/checkpoint_loader, and the SseOptions validation satellite.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/sse.h"
#include "lifecycle/checkpoint_publisher.h"
#include "lifecycle/drift_controller.h"
#include "lifecycle/model_rebuild.h"
#include "lifecycle/sample_store.h"
#include "nn/serialize.h"
#include "serve/checkpoint_loader.h"
#include "tensor/rng.h"
#include "testkit/gtest_glue.h"

namespace scis {
namespace {

namespace fs = std::filesystem;
using lifecycle::SampleStore;
using lifecycle::SampleStoreOptions;
using lifecycle::SampleTap;
using testkit::PropertyOptions;
using testkit::PropertyStatus;

std::string TmpDir(const std::string& stem, uint64_t seed) {
  return ::testing::TempDir() + "scis_lc_" + stem + "_" +
         std::to_string(seed);
}

Matrix RandomRows(Rng& rng, size_t n, size_t d, double missing_rate) {
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      m(i, j) = rng.Bernoulli(missing_rate)
                    ? std::numeric_limits<double>::quiet_NaN()
                    : rng.Uniform(-3.0, 3.0);
    }
  }
  return m;
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The newest segment file in a store directory (lexicographic max of the
// zero-padded names).
std::string NewestSegment(const std::string& dir) {
  std::string newest;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string p = e.path().string();
    if (newest.empty() || p > newest) newest = p;
  }
  return newest;
}

TEST(LifecycleStoreTest, ReplaysAppendedRowsBitExact) {
  const std::string dir = TmpDir("roundtrip", 1);
  fs::remove_all(dir);
  Result<std::unique_ptr<SampleStore>> store = SampleStore::Open(dir, 5);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  Rng rng(3);
  std::vector<Matrix> records;
  for (size_t i = 0; i < 7; ++i) {
    records.push_back(RandomRows(rng, 1 + i % 4, 5, 0.3));
    ASSERT_TRUE((*store)->Append(records.back()).ok());
  }
  EXPECT_EQ((*store)->num_rows(), (*store)->total_rows());

  std::vector<Matrix> back;
  ASSERT_TRUE(
      (*store)->Replay([&](const Matrix& m) { back.push_back(m); }).ok());
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(BitEqual(back[i], records[i])) << "record " << i;
  }

  // Reopen: same content, no torn records, same counters.
  const size_t rows = (*store)->num_rows();
  store->reset();
  Result<std::unique_ptr<SampleStore>> again = SampleStore::Open(dir, 5);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->num_rows(), rows);
  EXPECT_EQ((*again)->torn_records(), 0u);
  // A different width refuses the existing store.
  again->reset();
  EXPECT_EQ(SampleStore::Open(dir, 6).status().code(),
            StatusCode::kInvalidArgument);
  fs::remove_all(dir);
}

TEST(LifecycleStoreTest, RotatesAndCompactsKeepingCumulativeCount) {
  const std::string dir = TmpDir("compact", 1);
  fs::remove_all(dir);
  SampleStoreOptions opts;
  opts.max_segment_bytes = 256;  // a couple of 2x3 records per segment
  opts.max_segments = 3;
  Result<std::unique_ptr<SampleStore>> store =
      SampleStore::Open(dir, 3, opts);
  ASSERT_TRUE(store.ok());

  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*store)->Append(RandomRows(rng, 2, 3, 0.2)).ok());
  }
  EXPECT_EQ((*store)->total_rows(), 40u);       // cumulative, pre-compaction
  EXPECT_LE((*store)->num_segments(), 3u);      // sliding window bounded
  EXPECT_LT((*store)->num_rows(), 40u);         // oldest rows compacted away

  // The cumulative count survives a reopen (recovered from headers).
  store->reset();
  Result<std::unique_ptr<SampleStore>> again =
      SampleStore::Open(dir, 3, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->total_rows(), 40u);
  fs::remove_all(dir);
}

// Crash-recovery property: whatever suffix of the newest segment a crash
// tears off (clean cut or corrupted bytes), Open() recovers the longest
// intact record prefix, replays it bit-exact, and appends resume cleanly.
TEST(LifecycleStoreTest, RecoversTornTailProperty) {
  PropertyOptions opts;
  opts.iterations = 30;
  CHECK_PROPERTY(
      "sample_store_torn_tail_recovery",
      [](uint64_t seed) -> PropertyStatus {
        const std::string dir = TmpDir("torn", seed);
        fs::remove_all(dir);
        Rng rng(seed * 7919 + 1);
        const size_t d = 1 + rng.UniformIndex(6);

        std::vector<Matrix> records;
        {
          Result<std::unique_ptr<SampleStore>> store =
              SampleStore::Open(dir, d);
          PROP_CHECK_MSG(store.ok(), store.status().ToString());
          const size_t n = 2 + rng.UniformIndex(8);
          for (size_t i = 0; i < n; ++i) {
            records.push_back(
                RandomRows(rng, 1 + rng.UniformIndex(5), d, 0.3));
            const Status st = (*store)->Append(records.back());
            PROP_CHECK_MSG(st.ok(), st.ToString());
          }
        }  // destructor = clean close; now simulate the crash damage

        const std::string tail_path = NewestSegment(dir);
        PROP_CHECK(!tail_path.empty());
        const size_t fsize = static_cast<size_t>(fs::file_size(tail_path));
        // Cut or corrupt at a random offset past the 24-byte header.
        const size_t at = 24 + rng.UniformIndex(fsize - 24 + 1);
        if (rng.Bernoulli(0.5)) {
          fs::resize_file(tail_path, at);  // torn write: clean truncation
        } else if (at < fsize) {
          std::FILE* f = std::fopen(tail_path.c_str(), "r+b");
          PROP_CHECK(f != nullptr);
          std::fseek(f, static_cast<long>(at), SEEK_SET);
          const uint8_t junk = static_cast<uint8_t>(0xA5u ^ seed);
          std::fwrite(&junk, 1, 1, f);
          std::fclose(f);
        }

        Result<std::unique_ptr<SampleStore>> store = SampleStore::Open(dir, d);
        PROP_CHECK_MSG(store.ok(), store.status().ToString());
        std::vector<Matrix> back;
        Status rs = (*store)->Replay([&](const Matrix& m) {
          back.push_back(m);
        });
        PROP_CHECK_MSG(rs.ok(), rs.ToString());
        // The recovered log is a prefix of what was appended, bit-exact.
        PROP_CHECK_LE(back.size(), records.size());
        for (size_t i = 0; i < back.size(); ++i) {
          PROP_CHECK_MSG(BitEqual(back[i], records[i]),
                         "recovered record " + std::to_string(i) +
                             " is not bit-identical");
        }

        // Appends resume after recovery and replay picks them up.
        const Matrix fresh = RandomRows(rng, 2, d, 0.2);
        const Status as = (*store)->Append(fresh);
        PROP_CHECK_MSG(as.ok(), as.ToString());
        std::vector<Matrix> after;
        rs = (*store)->Replay([&](const Matrix& m) { after.push_back(m); });
        PROP_CHECK_MSG(rs.ok(), rs.ToString());
        PROP_CHECK(after.size() == back.size() + 1);
        PROP_CHECK_MSG(BitEqual(after.back(), fresh),
                       "post-recovery append did not replay");
        fs::remove_all(dir);
        return PropertyStatus::Pass();
      },
      opts);
}

TEST(LifecycleTapTest, DropsInsteadOfBlockingWhenFull) {
  const std::string dir = TmpDir("tap", 1);
  fs::remove_all(dir);
  Result<std::unique_ptr<SampleStore>> opened = SampleStore::Open(dir, 4);
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<SampleStore> store = std::move(*opened);

  SampleTap tap(store, /*capacity_rows=*/8);
  Rng rng(9);
  size_t offered = 0;
  for (int i = 0; i < 200; ++i) {
    const Matrix rows = RandomRows(rng, 3, 4, 0.2);
    tap.Offer(rows);  // returns immediately, full or not
    offered += rows.rows();
  }
  tap.Drain();
  EXPECT_EQ(tap.stored_rows() + tap.dropped_rows(), offered);
  EXPECT_EQ(store->num_rows(), tap.stored_rows());
  EXPECT_GT(tap.stored_rows(), 0u);
  fs::remove_all(dir);
}

// Flips one bit of the byte `from_end` bytes before the end of `path` —
// inside the weight blob for any checkpoint this file writes.
void FlipByteFromEnd(const std::string& path, size_t from_end) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, -static_cast<long>(from_end), SEEK_END), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x04, f);
  std::fclose(f);
}

// A GAIN-shaped checkpoint with random weights, wide enough to serve.
Checkpoint MakeCheckpoint(size_t d, uint64_t seed) {
  Rng rng(seed);
  Checkpoint ckpt;
  ckpt.meta.model = "GAIN";
  for (size_t j = 0; j < d; ++j) {
    ckpt.meta.columns.push_back({"c" + std::to_string(j), 0, 0});
    ckpt.meta.norm_lo.push_back(0.0);
    ckpt.meta.norm_hi.push_back(1.0);
  }
  ckpt.params.push_back({"gain.G.l0.W", rng.NormalMatrix(2 * d, d, 0.0, 0.3)});
  ckpt.params.push_back({"gain.G.l0.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  ckpt.params.push_back({"gain.G.l1.W", rng.NormalMatrix(d, d, 0.0, 0.3)});
  ckpt.params.push_back({"gain.G.l1.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  return ckpt;
}

// Publish/SaveCheckpointBinary take live params; bridge from a loaded
// checkpoint's NamedParam list.
ParamStore ToParamStore(const Checkpoint& ckpt) {
  ParamStore store;
  for (const NamedParam& p : ckpt.params) store.Add(p.name, p.value);
  return store;
}

TEST(SseOptionsValidationTest, RejectsEachBadField) {
  EXPECT_TRUE(ValidateSseOptions(SseOptions{}).ok());
  auto expect_invalid = [](SseOptions opts, const std::string& what) {
    const Status st = ValidateSseOptions(opts);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(st.message().find(what), std::string::npos) << st.ToString();
  };
  SseOptions o;
  o.epsilon = 0.0;
  expect_invalid(o, "epsilon");
  o = {};
  o.alpha = 1.0;
  expect_invalid(o, "alpha");
  o = {};
  o.beta = 0.0;
  expect_invalid(o, "beta");
  o = {};
  o.beta = 0.5;  // > alpha
  expect_invalid(o, "beta");
  o = {};
  o.k = 0;
  expect_invalid(o, "k");
  o = {};
  o.lambda = -1.0;
  expect_invalid(o, "lambda");
  o = {};
  o.eta_scale = 0.0;
  expect_invalid(o, "eta_scale");
  o = {};
  o.curvature_batches = 0;
  expect_invalid(o, "curvature_batches");
  o = {};
  o.curvature_batch_size = 1;
  expect_invalid(o, "curvature_batch_size");
}

TEST(SseOptionsValidationTest, DriftControllerRefusesBadOptions) {
  const std::string dir = TmpDir("badopts", 1);
  fs::remove_all(dir);
  Result<std::unique_ptr<SampleStore>> opened = SampleStore::Open(dir, 4);
  ASSERT_TRUE(opened.ok());
  std::shared_ptr<SampleStore> store = std::move(*opened);
  lifecycle::DriftControllerOptions opts;
  opts.sse.epsilon = -1.0;
  EXPECT_EQ(lifecycle::DriftController::Create(store, MakeCheckpoint(4, 2),
                                               nullptr, opts)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  fs::remove_all(dir);
}

TEST(CheckpointLoaderTest, LoadsValidatesAndRefusesWidthMismatch) {
  const std::string path = ::testing::TempDir() + "scis_lc_loader.bin";
  const Checkpoint ckpt = MakeCheckpoint(6, 11);
  ASSERT_TRUE(SaveCheckpointBinary(ToParamStore(ckpt), ckpt.meta, path).ok());

  Result<std::shared_ptr<const serve::ImputationEngine>> engine =
      serve::LoadAndValidateCheckpoint(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->num_cols(), 6u);

  EXPECT_EQ(serve::LoadAndValidateCheckpoint(path, /*expect_cols=*/9)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A flipped weight bit fails the blob checksum (the finiteness probe
  // alone would have let a finite-but-wrong weight through).
  FlipByteFromEnd(path, 100);
  EXPECT_EQ(serve::LoadAndValidateCheckpoint(path).status().code(),
            StatusCode::kInvalidArgument);

  // Garbage never reaches the fleet.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  EXPECT_FALSE(serve::LoadAndValidateCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointPublisherTest, PublishesGenerationsAndRollsBackFailedSwap) {
  const std::string dir = TmpDir("publish", 1);
  fs::remove_all(dir);
  const Checkpoint ckpt = MakeCheckpoint(4, 21);
  Rng rng(23);
  const Matrix validation = RandomRows(rng, 4, 4, 0.5);

  // Happy path: swap captures the engine, generation advances, the file
  // stays on disk.
  std::shared_ptr<const serve::ImputationEngine> slot;
  lifecycle::CheckpointPublisher ok_pub(
      dir, [&slot](std::shared_ptr<const serve::ImputationEngine> next) {
        slot = std::move(next);
        return Status::OK();
      });
  const ParamStore params = ToParamStore(ckpt);
  Result<std::string> path = ok_pub.Publish(params, ckpt.meta, validation);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(ok_pub.generation(), 1u);
  EXPECT_NE(slot, nullptr);
  EXPECT_TRUE(fs::exists(*path));

  // Failed swap: the publish attempt rolls back — no generation advance,
  // no checkpoint file left behind.
  lifecycle::CheckpointPublisher bad_pub(
      dir + "/bad", [](std::shared_ptr<const serve::ImputationEngine>) {
        return Status::Unavailable("fleet rejected the swap");
      });
  Result<std::string> rejected =
      bad_pub.Publish(params, ckpt.meta, validation);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(bad_pub.generation(), 0u);
  EXPECT_TRUE(fs::is_empty(dir + "/bad"));
  fs::remove_all(dir);
}

// A generation corrupted between write and deploy is rolled back: no
// swap, no generation advance, no file left behind.
TEST(CheckpointPublisherTest, RollsBackCorruptedGeneration) {
  const std::string dir = TmpDir("publish_corrupt", 1);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Checkpoint ckpt = MakeCheckpoint(4, 25);
  Rng rng(27);
  const Matrix validation = RandomRows(rng, 4, 4, 0.5);
  int swaps = 0;
  lifecycle::CheckpointPublisher pub(
      dir, [&swaps](std::shared_ptr<const serve::ImputationEngine>) {
        ++swaps;
        return Status::OK();
      });

  const std::string path = dir + "/gen-000001.bin";
  ASSERT_TRUE(SaveCheckpointBinary(ToParamStore(ckpt), ckpt.meta, path).ok());
  FlipByteFromEnd(path, 200);
  Result<std::string> deployed = pub.Deploy(path, 4, validation);
  EXPECT_EQ(deployed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(swaps, 0);
  EXPECT_EQ(pub.generation(), 0u);
  EXPECT_FALSE(fs::exists(path));

  // The same weights written intact deploy as generation 1.
  Result<std::string> published =
      pub.Publish(ToParamStore(ckpt), ckpt.meta, validation);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(*published, path);
  EXPECT_EQ(swaps, 1);
  EXPECT_EQ(pub.generation(), 1u);
  fs::remove_all(dir);
}

TEST(ModelRebuildTest, RebuildsGainBitExactAndRejectsShapeMismatch) {
  Checkpoint ckpt = MakeCheckpoint(5, 31);
  Result<std::unique_ptr<GenerativeImputer>> model =
      lifecycle::RebuildTrainableModel(ckpt, /*seed=*/7);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const ParamStore& params = (*model)->generator_params();
  ASSERT_EQ(params.size(), ckpt.params.size());
  for (size_t i = 0; i < ckpt.params.size(); ++i) {
    EXPECT_TRUE(BitEqual(params.value(i), ckpt.params[i].value))
        << ckpt.params[i].name;
  }

  Checkpoint bad = MakeCheckpoint(5, 31);
  bad.params[2].value = Matrix(2, 2);  // wrong hidden-layer shape
  EXPECT_EQ(lifecycle::RebuildTrainableModel(bad, 7).status().code(),
            StatusCode::kInvalidArgument);

  Checkpoint unknown = MakeCheckpoint(5, 31);
  unknown.meta.model = "MYSTERY";
  EXPECT_EQ(lifecycle::RebuildTrainableModel(unknown, 7).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace scis
