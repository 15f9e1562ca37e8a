#include "lifecycle/checkpoint_publisher.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/check.h"
#include "obs/metrics.h"
#include "serve/checkpoint_loader.h"

namespace scis::lifecycle {

namespace {

struct PublishMetrics {
  obs::Counter* swaps;
  obs::Counter* rollbacks;
  obs::Gauge* generation;

  static PublishMetrics& Get() {
    static PublishMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      return PublishMetrics{r.GetCounter("lifecycle.swaps"),
                            r.GetCounter("lifecycle.rollbacks"),
                            r.GetGauge("lifecycle.generation")};
    }();
    return m;
  }
};

// Rollback = delete the candidate file, never advance the generation.
Status Rollback(const std::string& path, Status why) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  PublishMetrics::Get().rollbacks->Add();
  return why;
}

}  // namespace

CheckpointPublisher::CheckpointPublisher(std::string dir, SwapFn swap)
    : dir_(std::move(dir)), swap_(std::move(swap)) {
  SCIS_CHECK(swap_ != nullptr);
}

Result<std::string> CheckpointPublisher::Publish(const ParamStore& params,
                                                 const CheckpointMeta& meta,
                                                 const Matrix& validation) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir_ + ": " + ec.message());
  }
  char name[32];
  std::snprintf(name, sizeof(name), "gen-%06" PRIu64 ".bin",
                generation_.load() + 1);
  const std::string path = dir_ + "/" + name;
  if (Status st = SaveCheckpointBinary(params, meta, path); !st.ok()) {
    return Rollback(path, st);
  }
  return Deploy(path, meta.columns.size(), validation);
}

Result<std::string> CheckpointPublisher::Deploy(const std::string& path,
                                                size_t cols,
                                                const Matrix& validation) {
  // Identical acceptance rules as the SIGHUP operator reload.
  Result<std::shared_ptr<const serve::ImputationEngine>> engine =
      serve::LoadAndValidateCheckpoint(path, cols);
  if (!engine.ok()) return Rollback(path, engine.status());

  // Validation batch on real traffic rows: finite fills, and observed cells
  // must pass through bit-exactly (the engine's Eq.-1 contract).
  if (validation.rows() > 0) {
    Result<Matrix> out = (*engine)->ImputeBatch(validation);
    if (!out.ok()) {
      return Rollback(path, Status::Internal("validation batch failed: " +
                                             out.status().message()));
    }
    for (size_t i = 0; i < validation.rows(); ++i) {
      for (size_t j = 0; j < validation.cols(); ++j) {
        const double in = validation(i, j);
        const double got = out.value()(i, j);
        if (std::isnan(in)) {
          if (!std::isfinite(got)) {
            return Rollback(path, Status::Internal(
                "validation batch imputed a non-finite value"));
          }
        } else if (got != in) {
          return Rollback(path, Status::Internal(
              "validation batch mutated an observed cell"));
        }
      }
    }
  }

  if (Status st = swap_(std::move(*engine)); !st.ok()) {
    return Rollback(path,
                    Status::Internal("hot-swap refused: " + st.message()));
  }

  const uint64_t next = generation_.load() + 1;
  generation_.store(next);
  PublishMetrics& m = PublishMetrics::Get();
  m.swaps->Add();
  m.generation->Set(static_cast<double>(next));
  return path;
}

}  // namespace scis::lifecycle
