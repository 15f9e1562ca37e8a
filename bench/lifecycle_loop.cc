// lifecycle_loop — latency bench for the continuous-learning loop.
//
//   lifecycle_loop [--cols 8] [--quick] [--bench-json bench/BENCH_lifecycle.json]
//                  [--trace-out t.json] [--report-out r.json]
//
// For each store size in the sweep: append that much traffic to a fresh
// SampleStore (timing append throughput), replay it (timing replay
// throughput), then time two DriftController checks over the same store —
// one with a loose ε that stays confident (the steady-state "estimate"
// cost: replay + normalize + SSE Prepare + one confidence probe) and one
// with a tight ε that trips (the full detect → n* search → DIM retrain →
// checkpoint publish → validate → swap path). loop_ms − estimate_ms is
// what a drift event costs on top of the background check.
//
// The swap lands in a captured engine slot (no sockets — serving-path
// latency is serve_latency's job; scis_lifecycle covers the live-fleet
// loop). The committed full-mode baseline is bench/BENCH_lifecycle.json.
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "lifecycle/checkpoint_publisher.h"
#include "lifecycle/drift_controller.h"
#include "lifecycle/sample_store.h"
#include "serve/engine.h"
#include "tensor/rng.h"

using namespace scis;

namespace {

// A GAIN-shaped checkpoint with random weights (the loop's cost does not
// care that the model is untrained).
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

struct LoopPoint {
  size_t rows = 0;
  size_t n_star = 0;
  double append_rows_per_s = 0.0;
  double replay_rows_per_s = 0.0;
  double estimate_ms = 0.0;  // confident check: replay + SSE probe
  double loop_ms = 0.0;      // drifted check: detect -> retrain -> swap
  bool swapped = false;
};

LoopPoint RunPoint(const Checkpoint& ckpt, size_t rows, size_t d,
                   const std::string& dir) {
  LoopPoint pt;
  pt.rows = rows;

  std::filesystem::remove_all(dir);
  Result<std::unique_ptr<lifecycle::SampleStore>> opened =
      lifecycle::SampleStore::Open(dir + "/samples", d);
  SCIS_CHECK_MSG(opened.ok(), "store open failed");
  std::shared_ptr<lifecycle::SampleStore> store = std::move(*opened);

  Rng rng(19);
  constexpr size_t kBatch = 64;
  Stopwatch append_watch;
  for (size_t at = 0; at < rows; at += kBatch) {
    const size_t n = std::min(kBatch, rows - at);
    Matrix batch(n, d);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) {
        batch(i, j) = rng.Bernoulli(0.3)
                          ? std::numeric_limits<double>::quiet_NaN()
                          : rng.Uniform();
      }
    }
    SCIS_CHECK_MSG(store->Append(batch).ok(), "append failed");
  }
  pt.append_rows_per_s =
      static_cast<double>(rows) / append_watch.ElapsedSeconds();

  Stopwatch replay_watch;
  size_t replayed = 0;
  SCIS_CHECK_MSG(
      store->Replay([&](const Matrix& rec) { replayed += rec.rows(); }).ok(),
      "replay failed");
  SCIS_CHECK_MSG(replayed == rows, "replay row mismatch");
  pt.replay_rows_per_s =
      static_cast<double>(rows) / replay_watch.ElapsedSeconds();

  lifecycle::DriftControllerOptions base;
  base.min_rows = 64;
  base.initial_trained_rows = 64;
  base.reservoir_rows = 128;
  base.retrain.epochs = 2;
  base.sse.eta_scale = 1e-5;

  // Confident check: ε far above every sampled distance.
  {
    lifecycle::DriftControllerOptions opts = base;
    opts.sse.epsilon = 1e6;
    Result<std::unique_ptr<lifecycle::DriftController>> ctl =
        lifecycle::DriftController::Create(store, ckpt, nullptr, opts);
    SCIS_CHECK_MSG(ctl.ok(), "controller create failed");
    Stopwatch watch;
    Result<lifecycle::DriftController::CheckOutcome> out = (*ctl)->RunCheck();
    pt.estimate_ms = watch.ElapsedSeconds() * 1e3;
    SCIS_CHECK_MSG(out.ok() && out->checked && !out->drifted,
                   "estimate check misbehaved");
  }

  // Drifted check: tight ε, n* search, retrain, publish into a captured
  // engine slot.
  {
    std::shared_ptr<const serve::ImputationEngine> slot;
    lifecycle::CheckpointPublisher publisher(
        dir + "/checkpoints",
        [&slot](std::shared_ptr<const serve::ImputationEngine> next) {
          slot = std::move(next);
          return Status::OK();
        });
    lifecycle::DriftControllerOptions opts = base;
    opts.sse.epsilon = 1e-4;
    Result<std::unique_ptr<lifecycle::DriftController>> ctl =
        lifecycle::DriftController::Create(
            store, ckpt,
            [&publisher](const ParamStore& params, const CheckpointMeta& meta,
                         const Matrix& validation) {
              Result<std::string> path =
                  publisher.Publish(params, meta, validation);
              return path.ok() ? Status::OK() : path.status();
            },
            opts);
    SCIS_CHECK_MSG(ctl.ok(), "controller create failed");
    Stopwatch watch;
    Result<lifecycle::DriftController::CheckOutcome> out = (*ctl)->RunCheck();
    pt.loop_ms = watch.ElapsedSeconds() * 1e3;
    SCIS_CHECK_MSG(out.ok() && out->drifted && out->retrained &&
                       out->published,
                   "drift check did not complete the loop");
    pt.n_star = out->n_star;
    pt.swapped = slot != nullptr && publisher.generation() == 1;
  }
  return pt;
}

int WriteBenchJson(const std::string& path, const std::vector<LoopPoint>& pts,
                   bool quick, size_t d) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("bench-json: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"scis-bench-lifecycle-v1\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"cols\": %zu,\n", d);
  std::fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < pts.size(); ++i) {
    const LoopPoint& p = pts[i];
    std::fprintf(out,
                 "    {\"rows\": %zu, \"n_star\": %zu, "
                 "\"append_rows_per_s\": %.0f, \"replay_rows_per_s\": %.0f, "
                 "\"estimate_ms\": %.2f, \"loop_ms\": %.2f, "
                 "\"swapped\": %s}%s\n",
                 p.rows, p.n_star, p.append_rows_per_s, p.replay_rows_per_s,
                 p.estimate_ms, p.loop_ms, p.swapped ? "true" : "false",
                 i + 1 < pts.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("bench json written to %s (%zu points, mode=%s)\n", path.c_str(),
              pts.size(), quick ? "quick" : "full");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  long long cols = 8, threads = 0;
  bool quick = false;
  std::string bench_json;
  FlagParser flags;
  flags.AddInt("cols", &cols, "store/model width (columns)");
  flags.AddBool("quick", &quick, "small sweep for CI smoke runs");
  flags.AddString("bench-json", &bench_json,
                  "write the machine-readable loop sweep to this path");
  bench::AddThreadsFlag(flags, &threads);
  bench::ObsSession obs("lifecycle_loop");
  obs.AddFlags(flags);
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  bench::ApplyThreadsFlag(threads);
  obs.Start();
  obs.report().AddConfig("cols", static_cast<int64_t>(cols));
  obs.report().AddConfig("threads", static_cast<int64_t>(threads));
  obs.report().AddConfig("mode", quick ? "quick" : "full");

  const size_t d = static_cast<size_t>(cols);
  const Checkpoint ckpt = MakeCheckpoint(d, 17);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("scis_lifecycle_bench." + std::to_string(::getpid())))
          .string();

  std::vector<size_t> sweep = quick ? std::vector<size_t>{512, 2048}
                                    : std::vector<size_t>{512, 2048, 8192};
  std::printf("lifecycle_loop: d=%zu, retrain epochs=2\n\n", d);
  std::printf("%-8s %8s %14s %14s %14s %12s\n", "rows", "n*", "append rows/s",
              "replay rows/s", "estimate ms", "loop ms");
  std::vector<LoopPoint> points;
  for (size_t rows : sweep) {
    LoopPoint pt = RunPoint(ckpt, rows, d, dir);
    std::printf("%-8zu %8zu %14.0f %14.0f %14.2f %12.2f%s\n", pt.rows,
                pt.n_star, pt.append_rows_per_s, pt.replay_rows_per_s,
                pt.estimate_ms, pt.loop_ms, pt.swapped ? "" : "  NO SWAP");
    SCIS_CHECK_MSG(pt.swapped, "loop point did not publish a generation");
    points.push_back(pt);
  }
  std::filesystem::remove_all(dir);

  if (!bench_json.empty()) {
    return WriteBenchJson(bench_json, points, quick, d);
  }
  return 0;
}
