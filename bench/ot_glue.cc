// ot_glue — DIM's masked-OT glue: the GEMM form against the pre-GEMM form.
//
//   ot_glue [--quick] [--rounds 0] [--bench-json bench/BENCH_ot.json]
//           [--trace-out t.json] [--report-out r.json]
//
// One DIM training step at batch 128 needs, around its two Sinkhorn solves,
// the masked costs of the ab and aa problems and three envelope gradients.
// Two arms compute them on the same batch:
//
//   baseline — the composition before the GEMM rewrite, kept in testkit as
//              the bit-exact reference (testkit::ReferenceMaskedCost and
//              ReferenceMaskedOtGradWrtA/B): masks applied and norms taken
//              per cost, PairwiseSquaredDistances, per-row scaled axpy
//              gradients with a transposed plan copy on the B side.
//   fused    — ot/masked_cost.h: the projections x ⊙ m once, the ab cost and
//              the symmetric aa cost's upper triangle on the register-tiled
//              a·bᵀ kernel, and the gradients as P·B and Pᵀ·A GEMMs.
//
// Layers: `cost` (both costs), `grad` (three gradients), `glue` (their sum,
// the ot.masked_cost + ot.masked_grad spans of a DIM step) and `step` (the
// whole MsDivergenceForTraining, Sinkhorn included, against
// testkit::ReferenceMsStep). Each is timed at 1 and nproc runtime threads
// in interleaved rounds (baseline, fused, baseline, …) and reported as the
// median per-call time over all rounds, so load on a shared machine hits
// both arms alike. Every config also checks that the two arms' step
// outputs are bitwise equal at both thread counts.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/dim.h"
#include "ot/divergence.h"
#include "ot/masked_cost.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "testkit/oracles.h"

using namespace scis;

namespace {

constexpr size_t kBatch = 128;  // DimOptions::batch_size

struct Config {
  size_t d;
  double observed;  // mask density (Table-II-like missing rates)
};

struct Batch {
  Matrix xbar, x, m;
};

Batch MakeBatch(const Config& cfg, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  b.x = rng.UniformMatrix(kBatch, cfg.d, 0.0, 1.0);
  b.m = rng.BernoulliMatrix(kBatch, cfg.d, cfg.observed);
  b.x = Mul(b.x, b.m);  // missing cells are 0, as DIM's batches are
  b.xbar = rng.UniformMatrix(kBatch, cfg.d, 0.0, 1.0);
  return b;
}

SinkhornOptions DimSinkhorn() {
  const DimOptions dim;  // the options DimTrainer::Train passes
  SinkhornOptions o;
  o.lambda = dim.lambda;
  o.max_iters = dim.sinkhorn_iters;
  o.tol = 1e-7;
  o.rank = 0;
  return o;
}

// The plans a step's gradients consume, solved once up front.
struct Plans {
  Matrix ab, aa;
};

Plans SolvePlans(const Batch& b, const SinkhornOptions& o) {
  return {SolveSinkhorn(MaskedCostMatrix(b.xbar, b.m, b.x, b.m), o).plan,
          SolveSinkhorn(MaskedCostMatrix(b.xbar, b.m, b.xbar, b.m), o).plan};
}

double sink = 0.0;  // printed at exit, so no timed call is optimized away

void BaselineCost(const Batch& b) {
  sink += testkit::ReferenceMaskedCost(b.xbar, b.m, b.x, b.m)(0, 0);
  sink += testkit::ReferenceMaskedCost(b.xbar, b.m, b.xbar, b.m)(0, 0);
}

void BaselineGrad(const Batch& b, const Plans& p) {
  sink += testkit::ReferenceMaskedOtGradWrtA(p.ab, b.xbar, b.m, b.x, b.m)(0, 0);
  sink +=
      testkit::ReferenceMaskedOtGradWrtA(p.aa, b.xbar, b.m, b.xbar, b.m)(0, 0);
  sink +=
      testkit::ReferenceMaskedOtGradWrtB(p.aa, b.xbar, b.m, b.xbar, b.m)(0, 0);
}

// The fused cost layer includes both projections; the gradients reuse them,
// as MsDivergenceForTraining does.
void FusedCost(const Batch& b, MaskedRows* a_rows, MaskedRows* x_rows) {
  *a_rows = ProjectMaskedRows(b.xbar, b.m);
  *x_rows = ProjectMaskedRows(b.x, b.m);
  sink += MaskedCost(*a_rows, *x_rows)(0, 0);
  sink += MaskedSelfCost(*a_rows)(0, 0);
}

void FusedGrad(const Batch& b, const Plans& p, const MaskedRows& a_rows,
               const MaskedRows& x_rows) {
  sink += MaskedGradRows(p.ab, a_rows, b.m, x_rows)(0, 0);
  sink += MaskedGradRows(p.aa, a_rows, b.m, a_rows)(0, 0);
  sink += MaskedGradCols(p.aa, a_rows, a_rows, b.m)(0, 0);
}

struct Samples {
  std::vector<double> cost, grad, glue, step;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void TimeBaseline(const Batch& b, const Plans& p, const SinkhornOptions& o,
                  int reps, Samples* s) {
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    BaselineCost(b);
    const double cost = w.ElapsedMillis() * 1e3;
    BaselineGrad(b, p);
    const double glue = w.ElapsedMillis() * 1e3;
    s->cost.push_back(cost);
    s->grad.push_back(glue - cost);
    s->glue.push_back(glue);
    Stopwatch ws;
    sink += testkit::ReferenceMsStep(b.xbar, b.m, b.x, b.m, o, false, true)
                .value;
    s->step.push_back(ws.ElapsedMillis() * 1e3);
  }
}

void TimeFused(const Batch& b, const Plans& p, const SinkhornOptions& o,
               int reps, Samples* s) {
  MaskedRows a_rows, x_rows;
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    FusedCost(b, &a_rows, &x_rows);
    const double cost = w.ElapsedMillis() * 1e3;
    FusedGrad(b, p, a_rows, x_rows);
    const double glue = w.ElapsedMillis() * 1e3;
    s->cost.push_back(cost);
    s->grad.push_back(glue - cost);
    s->glue.push_back(glue);
    Stopwatch ws;
    sink += MsDivergenceForTraining(b.xbar, b.x, b.m, o).value;
    s->step.push_back(ws.ElapsedMillis() * 1e3);
  }
}

bool SameBits(const DivergenceResult& a, const DivergenceResult& b) {
  return std::memcmp(&a.value, &b.value, sizeof(double)) == 0 &&
         a.grad_xbar.SameShape(b.grad_xbar) &&
         std::memcmp(a.grad_xbar.data(), b.grad_xbar.data(),
                     a.grad_xbar.size() * sizeof(double)) == 0;
}

struct GlueResult {
  size_t d = 0;
  int threads = 0;
  double base_cost = 0, fused_cost = 0, base_grad = 0, fused_grad = 0;
  double base_glue = 0, fused_glue = 0, base_step = 0, fused_step = 0;
  bool bit_identical = false;
};

int WriteBenchJson(const std::string& path, const std::vector<GlueResult>& rs,
                   bool quick, int nproc, int rounds, int reps) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("bench-json: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"scis-bench-ot-v1\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"nproc\": %d,\n", nproc);
  std::fprintf(out, "  \"batch_rows\": %zu,\n", kBatch);
  std::fprintf(out, "  \"rounds\": %d,\n", rounds);
  std::fprintf(out, "  \"reps_per_round\": %d,\n", reps);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < rs.size(); ++i) {
    const GlueResult& r = rs[i];
    std::fprintf(
        out,
        "    {\"d\": %zu, \"threads\": %d,\n"
        "     \"baseline_cost_us\": %.2f, \"fused_cost_us\": %.2f, "
        "\"cost_speedup\": %.2f,\n"
        "     \"baseline_grad_us\": %.2f, \"fused_grad_us\": %.2f, "
        "\"grad_speedup\": %.2f,\n"
        "     \"baseline_glue_us\": %.2f, \"fused_glue_us\": %.2f, "
        "\"glue_speedup\": %.2f,\n"
        "     \"baseline_step_us\": %.2f, \"fused_step_us\": %.2f, "
        "\"step_speedup\": %.2f,\n"
        "     \"bit_identical\": %s}%s\n",
        r.d, r.threads, r.base_cost, r.fused_cost, r.base_cost / r.fused_cost,
        r.base_grad, r.fused_grad, r.base_grad / r.fused_grad, r.base_glue,
        r.fused_glue, r.base_glue / r.fused_glue, r.base_step, r.fused_step,
        r.base_step / r.fused_step, r.bit_identical ? "true" : "false",
        i + 1 < rs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("bench json written to %s (%zu configs, mode=%s)\n",
              path.c_str(), rs.size(), quick ? "quick" : "full");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  long long rounds_flag = 0;
  std::string bench_json;
  FlagParser flags;
  flags.AddBool("quick", &quick, "short run for CI smoke");
  flags.AddInt("rounds", &rounds_flag,
               "interleaved rounds per config (0 = mode default)");
  flags.AddString("bench-json", &bench_json,
                  "write the machine-readable results to this path");
  bench::ObsSession obs("ot_glue");
  obs.AddFlags(flags);
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  obs.Start();

  const int rounds =
      rounds_flag > 0 ? static_cast<int>(rounds_flag) : (quick ? 2 : 15);
  const int reps = quick ? 5 : 40;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  obs.report().AddConfig("rounds", static_cast<int64_t>(rounds));
  obs.report().AddConfig("nproc", static_cast<int64_t>(nproc));

  // Weather-, Emergency- and Search-like widths and observed rates.
  const std::vector<Config> configs = {{9, 0.78}, {22, 0.6}, {64, 0.19}};
  const SinkhornOptions sopts = DimSinkhorn();

  std::vector<GlueResult> results;
  std::printf("%4s %7s %10s %10s %8s %10s %10s %8s %6s\n", "d", "threads",
              "base_glue", "fused_glue", "speedup", "base_step", "fused_step",
              "speedup", "ident");
  for (const Config& cfg : configs) {
    const Batch b = MakeBatch(cfg, 20261019 + cfg.d);
    runtime::SetNumThreads(1);
    const Plans plans = SolvePlans(b, sopts);
    const DivergenceResult want =
        testkit::ReferenceMsStep(b.xbar, b.m, b.x, b.m, sopts, false, true);
    std::vector<int> thread_counts = {1};
    if (nproc > 1) thread_counts.push_back(nproc);
    for (const int threads : thread_counts) {
      runtime::SetNumThreads(threads);
      GlueResult r;
      r.d = cfg.d;
      r.threads = threads;
      r.bit_identical =
          SameBits(MsDivergenceForTraining(b.xbar, b.x, b.m, sopts), want) &&
          SameBits(testkit::ReferenceMsStep(b.xbar, b.m, b.x, b.m, sopts,
                                            false, true),
                   want);
      Samples base, fused;
      TimeBaseline(b, plans, sopts, 2, &base);  // warm caches and pools
      TimeFused(b, plans, sopts, 2, &fused);
      base = {};
      fused = {};
      for (int round = 0; round < rounds; ++round) {
        TimeBaseline(b, plans, sopts, reps, &base);
        TimeFused(b, plans, sopts, reps, &fused);
      }
      r.base_cost = Median(base.cost);
      r.fused_cost = Median(fused.cost);
      r.base_grad = Median(base.grad);
      r.fused_grad = Median(fused.grad);
      r.base_glue = Median(base.glue);
      r.fused_glue = Median(fused.glue);
      r.base_step = Median(base.step);
      r.fused_step = Median(fused.step);
      std::printf("%4zu %7d %9.1fus %9.1fus %7.2fx %9.1fus %9.1fus %7.2fx %6s\n",
                  r.d, r.threads, r.base_glue, r.fused_glue,
                  r.base_glue / r.fused_glue, r.base_step, r.fused_step,
                  r.base_step / r.fused_step, r.bit_identical ? "yes" : "NO");
      results.push_back(r);
    }
  }
  runtime::SetNumThreads(0);
  std::printf("checksum %.6g\n", sink);

  int rc = 0;
  if (!bench_json.empty()) {
    rc = WriteBenchJson(bench_json, results, quick, nproc, rounds, reps);
  }
  return obs.Finish() || rc;
}
