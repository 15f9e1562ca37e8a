#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "lifecycle/model_rebuild.h"
#include "models/gain_imputer.h"
#include "nn/serialize.h"
#include "tensor/rng.h"

namespace scis {
namespace {

// Identity-normalizer schema of width d for stores that only need to
// round-trip.
CheckpointMeta PlainMeta(size_t d) {
  CheckpointMeta meta;
  meta.model = "GAIN";
  for (size_t j = 0; j < d; ++j) {
    meta.columns.push_back({"c" + std::to_string(j), 0, 0});
  }
  meta.norm_lo.assign(d, 0.0);
  meta.norm_hi.assign(d, 1.0);
  return meta;
}

std::vector<char> ReadBytes(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const char* data, size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(data, 1, n, f);
  std::fclose(f);
}

// A GAIN generator's params at width d, saved with its schema: the shape
// lifecycle::RebuildTrainableModel restores into a trainable model.
void SaveGainShaped(size_t d, const std::string& path, ParamStore* store) {
  Rng rng(5);
  store->Add("gain.G.l0.W", rng.NormalMatrix(2 * d, d));
  store->Add("gain.G.l0.b", rng.NormalMatrix(1, d));
  store->Add("gain.G.l1.W", rng.NormalMatrix(d, d));
  store->Add("gain.G.l1.b", rng.NormalMatrix(1, d));
  ASSERT_TRUE(SaveCheckpointBinary(*store, PlainMeta(d), path).ok());
}

TEST(SerializeTest, RoundTripPreservesValues) {
  ParamStore store;
  Rng rng(1);
  store.Add("a.W", rng.NormalMatrix(3, 4));
  store.Add("a.b", rng.NormalMatrix(1, 4));
  const std::string path = "/tmp/scis_params_test.bin";
  ASSERT_TRUE(SaveCheckpointBinary(store, PlainMeta(3), path).ok());

  Result<Checkpoint> restored = LoadCheckpoint(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->params.size(), 2u);
  EXPECT_TRUE(restored->params[0].value.AllClose(store.value(0), 0.0));
  EXPECT_TRUE(restored->params[1].value.AllClose(store.value(1), 0.0));
  std::remove(path.c_str());
}

// Restoring weights into a trainable model checks every shape against the
// architecture the schema implies.
TEST(SerializeTest, RejectsShapeMismatch) {
  const std::string path = "/tmp/scis_params_shape.bin";
  ParamStore store;
  SaveGainShaped(3, path, &store);
  store.value(2) = Matrix::Zeros(2, 3);  // breaks the d -> d hidden layer
  ASSERT_TRUE(SaveCheckpointBinary(store, PlainMeta(3), path).ok());
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(lifecycle::RebuildTrainableModel(*loaded, 1).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsCountMismatchAndMissingFile) {
  const std::string path = "/tmp/scis_params_count.bin";
  ParamStore store;
  SaveGainShaped(3, path, &store);
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  loaded->params.pop_back();
  EXPECT_EQ(lifecycle::RebuildTrainableModel(*loaded, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadCheckpoint("/nonexistent/params.bin").status().code(),
            StatusCode::kIoError);
  std::remove(path.c_str());
}

// Named for the retired text format it first covered; it now holds the
// binary format to the same meta + params round trip.
TEST(SerializeTest, V2CheckpointRoundTripsMetaAndParams) {
  ParamStore store;
  Rng rng(3);
  store.Add("g.l0.W", rng.NormalMatrix(6, 3));
  store.Add("g.l0.b", rng.NormalMatrix(1, 3));

  CheckpointMeta meta;
  meta.model = "GAIN";
  meta.columns = {{"age", 0, 0}, {"blood type", 2, 4}, {"smoker", 1, 0}};
  meta.norm_lo = {0.0, -1.5, 0.0};
  meta.norm_hi = {120.0, 2.5, 1.0};
  const std::string path = "/tmp/scis_params_meta.bin";
  ASSERT_TRUE(SaveCheckpointBinary(store, meta, path).ok());

  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.model, "GAIN");
  ASSERT_EQ(loaded->meta.columns.size(), 3u);
  EXPECT_EQ(loaded->meta.columns[1].name, "blood type");  // space survives
  EXPECT_EQ(loaded->meta.columns[1].kind, 2);
  EXPECT_EQ(loaded->meta.columns[1].num_categories, 4);
  EXPECT_EQ(loaded->meta.norm_lo, meta.norm_lo);
  EXPECT_EQ(loaded->meta.norm_hi, meta.norm_hi);
  ASSERT_EQ(loaded->params.size(), 2u);
  EXPECT_EQ(loaded->params[0].name, "g.l0.W");
  EXPECT_TRUE(loaded->params[0].value.AllClose(store.value(0), 0.0));
  EXPECT_TRUE(loaded->params[1].value.AllClose(store.value(1), 0.0));
  std::remove(path.c_str());
}

// The retired formats — scis-params v1/v2 text and the unchecksummed
// binary layout — are refused with a typed error, never half-read.
TEST(SerializeTest, LoadCheckpointRefusesLegacyFormats) {
  const std::string path = "/tmp/scis_params_legacy.txt";
  for (const std::string text :
       {"scis-params v1\n1\nw 1 2\n1.5 -2.25\n",
        "scis-params v2\nmodel GAIN\ncolumns 1\n0 0 c0\nnormalizer 1\n0\n1\n"
        "params 1\nw 1 1\n0.5\n"}) {
    WriteBytes(path, text.data(), text.size());
    EXPECT_EQ(LoadCheckpoint(path).status().code(),
              StatusCode::kInvalidArgument);
  }

  ParamStore store;
  store.Add("w", Matrix{{1.5, -2.25}});
  ASSERT_TRUE(SaveCheckpointBinary(store, PlainMeta(1), path).ok());
  std::vector<char> bytes = ReadBytes(path);
  const char kOldMagic[8] = {'s', 'c', 'i', 's', 'c', 'k', 'p', '3'};
  std::copy(kOldMagic, kOldMagic + 8, bytes.begin());
  WriteBytes(path, bytes.data(), bytes.size());
  EXPECT_EQ(LoadCheckpoint(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveCheckpointValidatesMeta) {
  ParamStore store;
  store.Add("w", Matrix{{1.0}});
  CheckpointMeta meta;
  meta.model = "GAIN";
  meta.columns = {{"c0", 0, 0}};
  meta.norm_lo = {0.0, 1.0};  // size disagrees with columns
  meta.norm_hi = {1.0, 2.0};
  EXPECT_EQ(SaveCheckpointBinary(store, meta, "/tmp/scis_params_bad.bin")
                .code(),
            StatusCode::kInvalidArgument);
  meta.model.clear();
  meta.norm_lo = {0.0};
  meta.norm_hi = {1.0};
  EXPECT_EQ(SaveCheckpointBinary(store, meta, "/tmp/scis_params_bad.bin")
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializeTest, V3BinaryCheckpointMapsBackBitExact) {
  ParamStore store;
  Rng rng(7);
  store.Add("g.l0.W", rng.NormalMatrix(6, 3));
  store.Add("g.l0.b", rng.NormalMatrix(1, 3));
  store.Add("g.l1.W", rng.NormalMatrix(3, 3));
  store.Add("g.l1.b", rng.NormalMatrix(1, 3));

  CheckpointMeta meta;
  meta.model = "GAIN";
  meta.columns = {{"age", 0, 0}, {"blood type", 2, 4}, {"smoker", 1, 0}};
  meta.norm_lo = {0.0, -1.5, 0.0};
  meta.norm_hi = {120.0, 2.5, 1.0};
  const std::string path = "/tmp/scis_params_v3.bin";
  ASSERT_TRUE(SaveCheckpointBinary(store, meta, path).ok());

  Result<std::shared_ptr<const MappedCheckpoint>> mapped =
      MappedCheckpoint::Map(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ((*mapped)->meta().model, "GAIN");
  ASSERT_EQ((*mapped)->meta().columns.size(), 3u);
  EXPECT_EQ((*mapped)->meta().columns[1].name, "blood type");
  EXPECT_EQ((*mapped)->meta().columns[1].kind, 2);
  EXPECT_EQ((*mapped)->meta().columns[1].num_categories, 4);
  EXPECT_EQ((*mapped)->meta().norm_lo, meta.norm_lo);
  EXPECT_EQ((*mapped)->meta().norm_hi, meta.norm_hi);
  ASSERT_EQ((*mapped)->params().size(), 4u);
  for (size_t id = 0; id < store.size(); ++id) {
    const MappedCheckpoint::ParamView& p = (*mapped)->params()[id];
    EXPECT_EQ(p.name, store.name(id));
    ASSERT_EQ(p.rows, store.value(id).rows());
    ASSERT_EQ(p.cols, store.value(id).cols());
    // Zero-copy views are 64-byte aligned (blob layout + page-aligned map),
    // so downstream kernels can use aligned loads.
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p.data) % 64, 0u);
    for (size_t k = 0; k < p.rows * p.cols; ++k) {
      EXPECT_EQ(p.data[k], store.value(id).data()[k]);  // bit-exact
    }
  }

  // LoadCheckpoint maps and deep-copies.
  Result<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->params.size(), 4u);
  EXPECT_TRUE(loaded->params[0].value.AllClose(store.value(0), 0.0));
  std::remove(path.c_str());
}

// Re-saving over a mapped checkpoint (the save-then-SIGHUP reload flow)
// replaces the file, never the bytes a live mapping serves from.
TEST(SerializeTest, ResaveLeavesLiveMappingIntact) {
  ParamStore store;
  store.Add("w", Matrix{{1.5, -2.25}});
  const std::string path = "/tmp/scis_params_resave.bin";
  ASSERT_TRUE(SaveCheckpointBinary(store, PlainMeta(1), path).ok());
  Result<std::shared_ptr<const MappedCheckpoint>> live =
      MappedCheckpoint::Map(path);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  store.value(0) = Matrix{{7.0, 8.0}};
  ASSERT_TRUE(SaveCheckpointBinary(store, PlainMeta(1), path).ok());
  EXPECT_EQ((*live)->params()[0].data[0], 1.5);
  EXPECT_EQ((*live)->params()[0].data[1], -2.25);
  Result<Checkpoint> reloaded = LoadCheckpoint(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->params[0].value(0, 0), 7.0);
  std::remove(path.c_str());
}

TEST(SerializeTest, V3MapRejectsCorruptFiles) {
  ParamStore store;
  Rng rng(8);
  store.Add("w", rng.NormalMatrix(2, 2));
  const std::string path = "/tmp/scis_params_v3_corrupt.bin";
  ASSERT_TRUE(SaveCheckpointBinary(store, PlainMeta(1), path).ok());
  std::vector<char> bytes = ReadBytes(path);
  ASSERT_FALSE(bytes.empty());

  // Truncated mid-header and truncated mid-blob must both fail cleanly
  // (the last cut leaves fewer blob doubles than the 2x2 param declares).
  for (size_t cut : {size_t{6}, bytes.size() / 2, bytes.size() - 40}) {
    WriteBytes(path, bytes.data(), cut);
    EXPECT_FALSE(MappedCheckpoint::Map(path).ok()) << "cut=" << cut;
  }

  // A corrupted magic is not a checkpoint at all.
  bytes[0] ^= 0xff;
  WriteBytes(path, bytes.data(), bytes.size());
  EXPECT_FALSE(MappedCheckpoint::Map(path).ok());
  std::remove(path.c_str());
}

// Every byte past the magic is covered by the header or the blob checksum:
// flipping any single byte — schema, normalizer, param table, padding or a
// weight — is refused with a typed error instead of being served.
TEST(SerializeTest, MapRefusesAnySingleFlippedByte) {
  ParamStore store;
  Rng rng(9);
  store.Add("g.l0.W", rng.NormalMatrix(4, 2));
  store.Add("g.l0.b", rng.NormalMatrix(1, 2));
  const std::string path = "/tmp/scis_params_flip.bin";
  ASSERT_TRUE(SaveCheckpointBinary(store, PlainMeta(2), path).ok());
  const std::vector<char> bytes = ReadBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<char> flipped = bytes;
    flipped[at] ^= 0x01;
    WriteBytes(path, flipped.data(), flipped.size());
    EXPECT_EQ(MappedCheckpoint::Map(path).status().code(),
              StatusCode::kInvalidArgument)
        << "byte " << at << " of " << bytes.size();
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, TrainedGainCheckpointRestoresImputations) {
  Rng rng(2);
  Matrix values = rng.UniformMatrix(120, 3, 0, 1);
  Matrix mask = rng.BernoulliMatrix(120, 3, 0.7);
  MulInPlace(values, mask);
  Dataset data("ckpt", values, mask, {});

  GainImputerOptions o;
  o.deep.epochs = 5;
  GainImputer gain(o);
  ASSERT_TRUE(gain.Fit(data).ok());
  Matrix before = gain.Reconstruct(data);
  const std::string path = "/tmp/scis_gain_ckpt.bin";
  ASSERT_TRUE(
      SaveCheckpointBinary(gain.generator_params(), PlainMeta(3), path).ok());

  // A fresh trainable model rebuilt from the file alone.
  Result<Checkpoint> ckpt = LoadCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  Result<std::unique_ptr<GenerativeImputer>> fresh =
      lifecycle::RebuildTrainableModel(*ckpt, /*seed=*/999);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  Matrix after = (*fresh)->Reconstruct(data);
  EXPECT_TRUE(after.AllClose(before, 1e-12));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scis
