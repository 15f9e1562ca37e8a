// Round-trip properties for the two on-disk formats: CSV datasets (missing
// cells as empty fields, max_digits10 text) and binary checkpoints. Both
// promise bit-exact double round trips, so the properties compare with
// operator== — not AllClose.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "data/csv.h"
#include "nn/serialize.h"
#include "testkit/generators.h"
#include "testkit/gtest_glue.h"

namespace scis {
namespace {

using testkit::DatasetGen;
using testkit::GenDataset;
using testkit::GenMlpConfig;
using testkit::MaskMechanism;
using testkit::MlpConfig;
using testkit::PropertyStatus;

// Unique scratch path per call; the file is removed by the caller.
std::string TmpPath(const std::string& stem, uint64_t seed) {
  return ::testing::TempDir() + "scis_" + stem + "_" + std::to_string(seed);
}

PropertyStatus CsvRoundTrips(const Dataset& data, uint64_t seed) {
  const std::string path = TmpPath("csv", seed);
  const Status ws = WriteCsvDataset(data, path);
  PROP_CHECK_MSG(ws.ok(), ws.message());
  Result<Dataset> rt = ReadCsvDataset(path, data.name());
  std::remove(path.c_str());
  PROP_CHECK_MSG(rt.ok(), rt.status().message());
  const Dataset& back = rt.value();
  PROP_CHECK(back.num_rows() == data.num_rows());
  PROP_CHECK(back.num_cols() == data.num_cols());
  PROP_CHECK_MSG(back.values() == data.values(),
                 "values changed across the CSV round trip");
  PROP_CHECK_MSG(back.mask() == data.mask(),
                 "mask changed across the CSV round trip");
  for (size_t j = 0; j < data.num_cols(); ++j) {
    PROP_CHECK_MSG(back.columns()[j].name == data.columns()[j].name,
                   "column name changed: " + data.columns()[j].name);
  }
  const Status vs = back.Validate();
  PROP_CHECK_MSG(vs.ok(), vs.message());
  return PropertyStatus::Pass();
}

TEST(SerializationPropertyTest, CsvRoundTripsBitExactAcrossMechanisms) {
  for (const MaskMechanism mech :
       {MaskMechanism::kMcar, MaskMechanism::kMar, MaskMechanism::kMnar}) {
    DatasetGen g;
    g.mechanism = mech;
    g.lo = -50.0;  // exercise negatives and magnitudes beyond [0,1]
    g.hi = 50.0;
    const std::string name =
        "csv_round_trip_mech" + std::to_string(static_cast<int>(mech));
    CHECK_PROPERTY(name, [&](uint64_t seed) {
      Rng rng(seed);
      return CsvRoundTrips(GenDataset(rng, g), seed);
    });
  }
}

TEST(SerializationPropertyTest, CsvRoundTripsEdgeShapes) {
  // Force the edge shapes instead of leaving them to the 25% coin: a
  // 1-column dataset (where a blank line is a data row, not a separator)
  // and a dataset containing a fully-missing row.
  CHECK_PROPERTY("csv_round_trip_single_column", [](uint64_t seed) {
    Rng rng(seed);
    DatasetGen g;
    g.min_cols = 1;
    g.max_cols = 1;
    g.min_missing = 0.3;
    g.max_missing = 0.8;  // blank lines likely
    g.edge_case_prob = 0.0;
    return CsvRoundTrips(GenDataset(rng, g), seed);
  });
  CHECK_PROPERTY("csv_round_trip_empty_row", [](uint64_t seed) {
    Rng rng(seed);
    DatasetGen g;
    g.edge_case_prob = 0.0;
    Dataset data = GenDataset(rng, g);
    // Blank out one full row.
    const size_t r = rng.UniformIndex(data.num_rows());
    for (size_t j = 0; j < data.num_cols(); ++j) {
      data.mutable_mask()(r, j) = 0.0;
      data.mutable_values()(r, j) = 0.0;
    }
    return CsvRoundTrips(data, seed);
  });
}

TEST(SerializationPropertyTest, ParamStoreRoundTripsBitExact) {
  CHECK_PROPERTY("params_round_trip", [](uint64_t seed) {
    Rng rng(seed);
    const size_t in_dim = 1 + rng.UniformIndex(6);
    const size_t out_dim = 1 + rng.UniformIndex(6);
    MlpConfig config = GenMlpConfig(rng, in_dim, out_dim);

    ParamStore saved_store;
    auto mlp = testkit::BuildMlp(&saved_store, "rt.G", config);
    CheckpointMeta meta;
    meta.model = "MLP";
    meta.columns.assign(in_dim, CheckpointColumn{});
    meta.norm_lo.assign(in_dim, 0.0);
    meta.norm_hi.assign(in_dim, 1.0);
    const std::string path = TmpPath("params", seed);
    const Status ws = SaveCheckpointBinary(saved_store, meta, path);
    PROP_CHECK_MSG(ws.ok(), ws.message());
    Result<Checkpoint> loaded = LoadCheckpoint(path);
    std::remove(path.c_str());
    PROP_CHECK_MSG(loaded.ok(), loaded.status().message());

    // Same architecture, different init — restoring must overwrite exactly.
    MlpConfig other = config;
    other.init_seed = config.init_seed + 1;
    ParamStore loaded_store;
    auto mlp2 = testkit::BuildMlp(&loaded_store, "rt.G", other);
    PROP_CHECK(loaded->params.size() == loaded_store.size());
    for (size_t id = 0; id < loaded_store.size(); ++id) {
      PROP_CHECK(loaded->params[id].name == loaded_store.name(id));
      loaded_store.value(id) = loaded->params[id].value;
    }

    const std::vector<double> a = saved_store.ToFlat();
    const std::vector<double> b = loaded_store.ToFlat();
    PROP_CHECK(a.size() == b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      PROP_CHECK_MSG(a[i] == b[i],
                     "parameter " + std::to_string(i) +
                         " changed across the checkpoint round trip");
    }
    return PropertyStatus::Pass();
  });
}

}  // namespace
}  // namespace scis
