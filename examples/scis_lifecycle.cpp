// scis_lifecycle — end-to-end continuous-learning loopback demo.
//
//   scis_lifecycle [--workdir DIR] [--report-out report.json]
//
// Runs the full SSE-driven lifecycle against a live serving fleet, three
// times (1, 2, and 4 worker threads), and requires every run to agree
// bit-for-bit:
//
//   1. Train a GAIN generator offline, save a v3 checkpoint, serve it
//      behind the epoll event loop.
//   2. Feed baseline traffic through a client; the DriftController check
//      finds P(D(θ_n, θ_N) ≤ ε) ≥ 1−α — no drift, no retrain.
//   3. Feed drifted traffic (shifted value range, heavier missingness).
//      The next check drops the confidence below 1−α, estimates the
//      SSE minimum size n*, retrains the generator on the most recent n*
//      stored rows with the DIM loop, and publishes the new checkpoint —
//      the hot-swap lands while 16 concurrent connections are imputing
//      (launched from inside the publish step), with zero dropped or
//      blocked requests.
//   4. A post-swap probe batch is served by the retrained model; a final
//      check sees the confidence recover.
//
// Printed per run: confidence at each check, n*, swap generation, tap
// drops, and FNV-1a digests of the store replay and the post-swap served
// bytes. The three runs must produce identical digests, n*, and
// confidences; exit code 1 otherwise (ci.sh asserts on this).
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "core/dim.h"
#include "data/normalizer.h"
#include "lifecycle/lifecycle.h"
#include "models/gain_imputer.h"
#include "nn/serialize.h"
#include "obs/run_report.h"
#include "runtime/runtime.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tensor/rng.h"

using namespace scis;

namespace {

constexpr size_t kCols = 6;
constexpr size_t kTrainRows = 96;
constexpr int kBaselineBatches = 5;
constexpr int kDriftBatches = 24;
constexpr size_t kBatchRows = 16;
constexpr int kHammerConns = 16;
constexpr int kHammerBatchesPerConn = 1;

// Raw traffic rows: column j lives in [j, j + 2); NaN = missing. `shift`
// moves the distribution outside the training range (the injected drift).
Matrix TrafficRows(Rng& rng, size_t n, double missing_rate, double shift) {
  Matrix m(n, kCols);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < kCols; ++j) {
      const double lo = static_cast<double>(j) + shift;
      const double v = rng.Uniform(lo, lo + 2.0);
      m(i, j) = rng.Bernoulli(missing_rate)
                    ? std::numeric_limits<double>::quiet_NaN()
                    : v;
    }
  }
  return m;
}

Dataset RawToDataset(const Matrix& raw) {
  Matrix values = raw;
  Matrix mask(raw.rows(), raw.cols());
  for (size_t k = 0; k < values.size(); ++k) {
    if (std::isnan(values.data()[k])) {
      values.data()[k] = 0.0;
    } else {
      mask.data()[k] = 1.0;
    }
  }
  return Dataset("lifecycle_demo", std::move(values), std::move(mask),
                 NumericColumns(raw.cols()));
}

CheckpointMeta MakeMeta(const Dataset& raw, const MinMaxNormalizer& norm) {
  CheckpointMeta meta;
  meta.model = "GAIN";
  for (const ColumnMeta& c : raw.columns()) {
    CheckpointColumn col;
    col.name = c.name;
    col.kind = static_cast<int>(c.kind);
    col.num_categories = c.num_categories;
    meta.columns.push_back(std::move(col));
  }
  meta.norm_lo = norm.lo();
  meta.norm_hi = norm.hi();
  return meta;
}

uint64_t FnvMix(uint64_t h, const Matrix& m) {
  for (size_t k = 0; k < m.size(); ++k) {
    uint64_t bits;
    std::memcpy(&bits, &m.data()[k], sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct LoopRun {
  double conf_baseline = -1.0, conf_drift = -1.0, conf_after = -1.0;
  size_t n_star = 0;
  uint64_t generation = 0;
  uint64_t dropped = 0;
  uint64_t hammer_failures = 0;
  uint64_t store_digest = 0;
  uint64_t served_digest = 0;
  bool ok = false;
};

LoopRun RunLoop(int threads, const std::string& dir) {
  LoopRun run;
  runtime::SetNumThreads(threads);
  std::filesystem::create_directories(dir);

  // Offline training, exactly as scis_impute would do it.
  Rng rng(11);
  const Matrix raw0 = TrafficRows(rng, kTrainRows, 0.25, 0.0);
  const Dataset raw_ds = RawToDataset(raw0);
  MinMaxNormalizer norm;
  const Dataset train = norm.FitTransform(raw_ds);
  GainImputerOptions gopts;
  gopts.deep.seed = 5;
  GainImputer gain(gopts);
  DimOptions dopts;
  dopts.epochs = 6;
  dopts.seed = 13;
  DimTrainer offline(dopts);
  if (Status st = offline.Train(gain, train); !st.ok()) {
    std::printf("offline train: %s\n", st.ToString().c_str());
    return run;
  }
  const std::string ckpt_path = dir + "/model.bin";
  if (Status st = SaveCheckpointBinary(gain.generator_params(),
                                       MakeMeta(raw_ds, norm), ckpt_path);
      !st.ok()) {
    std::printf("save: %s\n", st.ToString().c_str());
    return run;
  }

  Result<std::shared_ptr<const serve::ImputationEngine>> engine =
      serve::ImputationEngine::Load(ckpt_path);
  if (!engine.ok()) {
    std::printf("load: %s\n", engine.status().ToString().c_str());
    return run;
  }
  Result<Checkpoint> ckpt = LoadCheckpoint(ckpt_path);
  if (!ckpt.ok()) {
    std::printf("ckpt: %s\n", ckpt.status().ToString().c_str());
    return run;
  }

  // The swap callback launches the 16-connection hammer just before the
  // fleet moves to the new engine, so the swap lands under live traffic.
  auto server_holder = std::make_shared<serve::ImputationServer*>(nullptr);
  std::vector<std::thread> hammer;
  std::atomic<uint64_t> hammer_failures{0};
  Rng hammer_rng(77);
  const Matrix hammer_batch = TrafficRows(hammer_rng, 1, 0.5, 0.0);
  auto join_hammer = [&hammer] {
    for (std::thread& t : hammer) t.join();
    hammer.clear();
  };
  auto start_hammer = [&] {
    auto holder = server_holder;
    for (int c = 0; c < kHammerConns; ++c) {
      hammer.emplace_back([holder, &hammer_batch, &hammer_failures] {
        Result<std::unique_ptr<serve::ImputationClient>> cl =
            serve::ImputationClient::Connect("127.0.0.1",
                                             (*holder)->port());
        if (!cl.ok()) {
          hammer_failures.fetch_add(kHammerBatchesPerConn);
          return;
        }
        for (int b = 0; b < kHammerBatchesPerConn; ++b) {
          if (!(*cl)->Impute(hammer_batch).ok()) hammer_failures.fetch_add(1);
        }
      });
    }
  };

  lifecycle::LifecycleOptions lopts;
  lopts.dir = dir;
  lopts.drift.min_rows = 64;
  lopts.drift.reservoir_rows = 96;
  lopts.drift.initial_trained_rows = kTrainRows;
  lopts.drift.retrain_cap_rows = 4096;
  lopts.drift.seed = 97;
  lopts.drift.sse.epsilon = 0.001;
  lopts.drift.sse.alpha = 0.05;
  lopts.drift.sse.eta_scale = 1e-5;
  lopts.drift.sse.curvature_batches = 4;
  lopts.drift.sse.curvature_batch_size = 64;
  lopts.drift.sse.seed = 37;
  lopts.drift.sse.k = 40;
  lopts.drift.retrain.epochs = 4;
  lopts.drift.retrain.seed = 29;
  Result<std::unique_ptr<lifecycle::LifecycleManager>> mgr =
      lifecycle::LifecycleManager::Create(
          *ckpt,
          [&start_hammer, server_holder](
              std::shared_ptr<const serve::ImputationEngine> next) {
            start_hammer();
            return (*server_holder)->HotSwap(std::move(next));
          },
          lopts);
  if (!mgr.ok()) {
    std::printf("lifecycle: %s\n", mgr.status().ToString().c_str());
    return run;
  }

  serve::ServerOptions sopts;
  sopts.sample_hook = (*mgr)->SampleHook();
  serve::ImputationServer server(std::move(*engine), sopts);
  if (Status st = server.Start(); !st.ok()) {
    std::printf("server: %s\n", st.ToString().c_str());
    return run;
  }
  *server_holder = &server;

  Result<std::unique_ptr<serve::ImputationClient>> feeder =
      serve::ImputationClient::Connect("127.0.0.1", server.port());
  if (!feeder.ok()) {
    std::printf("connect: %s\n", feeder.status().ToString().c_str());
    return run;
  }

  bool traffic_ok = true;
  // Phase 1: baseline traffic, then a check that must NOT drift.
  for (int b = 0; b < kBaselineBatches; ++b) {
    traffic_ok &=
        (*feeder)->Impute(TrafficRows(rng, kBatchRows, 0.25, 0.0)).ok();
  }
  Result<lifecycle::DriftController::CheckOutcome> c1 = (*mgr)->RunCheck();
  if (!c1.ok() || !traffic_ok) {
    std::printf("check1: %s\n", c1.ok() ? "traffic failed"
                                        : c1.status().ToString().c_str());
    return run;
  }
  run.conf_baseline = c1->confidence;

  // Phase 2: injected drift — values shifted past the training range,
  // heavier missingness — then the check that must retrain and swap.
  for (int b = 0; b < kDriftBatches; ++b) {
    traffic_ok &=
        (*feeder)->Impute(TrafficRows(rng, kBatchRows, 0.45, 8.0)).ok();
  }
  Result<lifecycle::DriftController::CheckOutcome> c2 = (*mgr)->RunCheck();
  join_hammer();
  if (!c2.ok() || !traffic_ok) {
    std::printf("check2: %s\n", c2.ok() ? "traffic failed"
                                        : c2.status().ToString().c_str());
    return run;
  }
  run.conf_drift = c2->confidence;
  run.n_star = c2->n_star;
  run.generation = (*mgr)->publisher().generation();
  run.hammer_failures = hammer_failures.load();

  // Phase 3: the retrained model serves a fixed probe; confidence recovers.
  Rng probe_rng(1234);
  const Matrix probe = TrafficRows(probe_rng, 8, 0.5, 8.0);
  Result<Matrix> served = (*feeder)->Impute(probe);
  if (!served.ok()) {
    std::printf("probe: %s\n", served.status().ToString().c_str());
    return run;
  }
  run.served_digest = FnvMix(14695981039346656037ull, *served);
  Result<lifecycle::DriftController::CheckOutcome> c3 = (*mgr)->RunCheck();
  join_hammer();  // a re-drifted check would have swapped (and hammered) again
  if (!c3.ok()) {
    std::printf("check3: %s\n", c3.status().ToString().c_str());
    return run;
  }
  run.conf_after = c3->confidence;

  run.dropped = (*mgr)->tap().dropped_rows();
  uint64_t digest = 14695981039346656037ull;
  Status replay = (*mgr)->store().Replay(
      [&](const Matrix& rec) { digest = FnvMix(digest, rec); });
  if (!replay.ok()) {
    std::printf("replay: %s\n", replay.ToString().c_str());
    return run;
  }
  run.store_digest = digest;

  (*mgr)->Stop();
  server.Shutdown();
  *server_holder = nullptr;

  run.ok = !c1->drifted && c2->drifted && c2->retrained && c2->published &&
           run.generation == 1 && run.dropped == 0 &&
           run.hammer_failures == 0 && !c3->drifted && traffic_ok;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workdir, report_out;
  FlagParser flags;
  flags.AddString("workdir", &workdir,
                  "scratch directory (default: a fresh temp dir)");
  flags.AddString("report-out", &report_out, "write a JSON run report");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  if (workdir.empty()) {
    workdir = (std::filesystem::temp_directory_path() /
               ("scis_lifecycle." + std::to_string(::getpid())))
                  .string();
  }

  const int kThreads[] = {1, 2, 4};
  std::vector<LoopRun> runs;
  for (int t : kThreads) {
    const std::string dir = workdir + "/t" + std::to_string(t);
    LoopRun run = RunLoop(t, dir);
    std::printf(
        "threads=%d  conf=[%.2f -> %.2f -> %.2f]  n*=%zu  gen=%llu  "
        "dropped=%llu  store=%016llx  served=%016llx  %s\n",
        t, run.conf_baseline, run.conf_drift, run.conf_after, run.n_star,
        static_cast<unsigned long long>(run.generation),
        static_cast<unsigned long long>(run.dropped),
        static_cast<unsigned long long>(run.store_digest),
        static_cast<unsigned long long>(run.served_digest),
        run.ok ? "ok" : "FAILED");
    if (!run.ok) return 1;
    runs.push_back(run);
  }
  runtime::SetNumThreads(0);

  bool identical = true;
  for (size_t i = 1; i < runs.size(); ++i) {
    identical &= runs[i].store_digest == runs[0].store_digest &&
                 runs[i].served_digest == runs[0].served_digest &&
                 runs[i].n_star == runs[0].n_star &&
                 runs[i].conf_baseline == runs[0].conf_baseline &&
                 runs[i].conf_drift == runs[0].conf_drift &&
                 runs[i].conf_after == runs[0].conf_after;
  }
  std::printf("lifecycle loop: %s (drift detected, retrained at n*=%zu, "
              "hot-swapped gen %llu under %d connections, 0 drops, "
              "bit-identical at 1/2/4 threads)\n",
              identical ? "OK" : "MISMATCH ACROSS THREAD COUNTS",
              runs[0].n_star,
              static_cast<unsigned long long>(runs[0].generation),
              kHammerConns);

  if (!report_out.empty()) {
    obs::RunReport report("scis_lifecycle");
    report.AddConfig("epsilon", 0.001);
    report.AddConfig("alpha", 0.05);
    report.AddConfig("n_star", static_cast<int64_t>(runs[0].n_star));
    report.AddConfig("generation",
                     static_cast<int64_t>(runs[0].generation));
    report.AddConfig("bit_identical_1_2_4_threads", identical);
    if (Status st = report.Write(report_out); !st.ok()) {
      std::printf("report: %s\n", st.ToString().c_str());
    }
  }
  return identical ? 0 : 1;
}
