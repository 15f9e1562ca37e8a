// DriftController: turns SSE from a one-shot offline estimate into the
// thing that decides *when and how much* to retrain in production (§V,
// Thm. 1 / Prop. 2 — the ROADMAP's "close the SSE loop" item).
//
// Each check replays the SampleStore into a normalized dataset (the same
// min-max stats the serving engine uses, so offline and online space
// agree), draws a deterministic validation reservoir, re-runs the SSE
// confidence estimate P(D(θ_n, θ_N) ≤ ε) with n = the rows the current
// model was trained on and N = every row ever served, and publishes
// confidence / n* / drift gauges through src/obs. Drift is declared when
// the confidence falls below 1 − α: the growing-N term of Theorem 1's
// η(n, N) ≍ ζ(λ)(1/n − 1/N) widens the sampled parameter gap as traffic
// accumulates, and drifted row content moves the curvature probe and the
// Eq.-4 output distances, so either volume or distribution shift can trip
// the trigger.
//
// On drift the controller runs Algorithm 1's production analogue:
// EstimateMinimumSize picks n*, the most recent n* stored rows retrain the
// generator through the existing DIM loop (warm-started — the optimizer
// state persists across retrains), and the result is handed to the
// publish callback (CheckpointPublisher → ImputationServer::HotSwap). The
// whole check is a pure function of (store content, options, trained-rows
// state), so a seeded loop reproduces bit-identical n*, weights, and
// post-swap served bytes at any thread count.
#ifndef SCIS_LIFECYCLE_DRIFT_CONTROLLER_H_
#define SCIS_LIFECYCLE_DRIFT_CONTROLLER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/dim.h"
#include "core/sse.h"
#include "lifecycle/sample_store.h"
#include "nn/serialize.h"

namespace scis::lifecycle {

struct DriftControllerOptions {
  // Background cadence (Start()); RunCheck() can always be driven manually.
  double check_interval_ms = 5000.0;
  // No check below this many retained rows — SSE needs a reasonable
  // curvature batch and validation split before its estimate means much.
  size_t min_rows = 64;
  // Validation reservoir drawn (deterministically) from the store.
  size_t reservoir_rows = 256;
  // Rows the *served* model was trained on (the initial n of the
  // confidence estimate). 0 = assume min_rows.
  size_t initial_trained_rows = 0;
  // Retrain budget: cap on the rows actually used when n* is huge
  // (0 = uncapped, retrain on min(n*, retained rows)).
  size_t retrain_cap_rows = 0;
  SseOptions sse;       // epsilon / alpha / k / eta_scale / seed ...
  DimOptions retrain;   // the incremental-retrain budget (epochs, lr, ...)
  uint64_t seed = 97;   // reservoir draws + rebuilt-model rng
};

class DriftController {
 public:
  // Publishes a retrained generator into the serving tier; `validation`
  // carries the reservoir rows in raw units for the publisher's
  // validation batch.
  using PublishFn = std::function<Status(
      const ParamStore& params, const CheckpointMeta& meta,
      const Matrix& validation)>;

  // What the last RunCheck concluded (demo/bench/test introspection; the
  // same numbers are exported as lifecycle.* metrics).
  struct CheckOutcome {
    bool checked = false;    // false = below min_rows, nothing evaluated
    bool drifted = false;
    bool retrained = false;
    bool published = false;
    double confidence = 1.0; // P(D ≤ ε) at the current trained size
    size_t n_star = 0;       // SSE answer (only when drifted)
    size_t trained_rows = 0; // n entering the check
    size_t total_rows = 0;   // N entering the check
  };

  // Rebuilds the trainable model from `ckpt` (the checkpoint the fleet is
  // serving) and validates the SSE options (satellite: epsilon > 0,
  // 0 < alpha,beta < 1, k ≥ 1 — InvalidArgument instead of misbehaving).
  static Result<std::unique_ptr<DriftController>> Create(
      std::shared_ptr<SampleStore> store, const Checkpoint& ckpt,
      PublishFn publish, DriftControllerOptions opts);

  ~DriftController();  // Stop()

  DriftController(const DriftController&) = delete;
  DriftController& operator=(const DriftController&) = delete;

  // One synchronous check: estimate → (maybe) retrain → (maybe) publish.
  // Deterministic given the store content and options. A publish failure is
  // returned but leaves the controller serviceable (the fleet keeps the
  // old model; the next check retries from the retrained weights).
  Result<CheckOutcome> RunCheck();

  // Periodic background checks every check_interval_ms. Stop() joins.
  void Start();
  void Stop();

  CheckOutcome last_outcome() const;
  size_t trained_rows() const;
  const CheckpointMeta& meta() const { return meta_; }

 private:
  DriftController() = default;

  void Loop();

  DriftControllerOptions opts_;
  std::shared_ptr<SampleStore> store_;
  CheckpointMeta meta_;
  std::unique_ptr<GenerativeImputer> model_;
  std::unique_ptr<DimTrainer> trainer_;
  PublishFn publish_;

  mutable std::mutex mu_;       // guards state below + serializes checks
  size_t trained_rows_ = 0;     // n of the confidence estimate
  CheckOutcome last_;

  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool loop_stop_ = false;
  std::thread loop_;
};

}  // namespace scis::lifecycle

#endif  // SCIS_LIFECYCLE_DRIFT_CONTROLLER_H_
