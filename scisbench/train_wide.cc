// train-wide: Scis::Run in memory on a Search-shaped table
// (SearchSpec(0.05): 47,438 x 64, 81.4% missing), n0 = 2000, 10 DIM epochs.
// Each round runs its input once at 1 runtime thread and once at nproc
// threads; the two imputations must agree bit for bit. The end-to-end time
// is the 1-thread run's: the nproc time moves with other load on the
// machine (README "Steadiness").
#include <cmath>

#include "bench.h"
#include "common/stopwatch.h"
#include "core/scis.h"
#include "data/normalizer.h"
#include "eval/experiment.h"
#include "obs/trace.h"

namespace scisbench {

using namespace scis;

namespace {

struct Run {
  Matrix imputed;  // normalized units
  ScisReport report;
  double seconds = 0;
  std::unique_ptr<GenerativeImputer> model;
};

Result<Run> RunScis(const Dataset& train, int threads, const char* span) {
  runtime::SetNumThreads(threads);
  Result<std::unique_ptr<GenerativeImputer>> gen =
      MakeGenerativeImputer("GAIN", 7);
  if (!gen.ok()) return gen.status();
  ScisOptions opts;
  opts.validation_size = std::min<size_t>(1000, train.num_rows() / 4);
  opts.initial_size = 2000;
  opts.dim.epochs = 10;
  opts.dim.lambda = 130.0;
  opts.sse.epsilon = 0.001;
  Scis scis(opts);
  Stopwatch w;
  Result<Matrix> res = [&] {
    obs::TraceSpan s(span);
    return scis.Run(**gen, train);
  }();
  const double seconds = w.ElapsedSeconds();
  if (!res.ok()) return res.status();
  return Run{std::move(res).value(), scis.report(), seconds,
             std::move(gen).value()};
}

}  // namespace

int RunTrainWide(const Args& args, Report* report) {
  // One round per 12 s of --seconds, each on its own table drawn from the
  // seed, so a run's medians span several inputs (n* varies with the input).
  // A traced run keeps one table, so traced and untraced rounds compare.
  const int rounds =
      std::max(args.trace ? 2 : 1, static_cast<int>(std::ceil(args.seconds / 12)));
  std::vector<double> setup, t1, tn, traced_s, untraced_s, rmse;
  std::vector<double> dim_initial, sse, dim_final, core_impute, n_star, rt;
  obs::Registry::Global().Reset();
  runtime::Stats pool;  // work counted by the runtime in the nproc runs
  std::unique_ptr<GenerativeImputer> last_model;
  Dataset last_train;
  size_t n = 0;
  for (int round = 0; round < rounds; ++round) {
    // Set-up: input generation and normalization.
    Stopwatch w;
    const Table table = MakeTable(
        SearchSpec(0.05), args.seed * 16 + (args.trace ? 0 : round));
    MinMaxNormalizer norm;
    Dataset train = norm.FitTransform(table.input);
    setup.push_back(w.ElapsedSeconds());
    n = train.num_rows();

    const bool traced = args.trace && round % 2 == 1;
    obs::SetTraceEnabled(traced);
    Result<Run> one = RunScis(train, 1, "bench.scis_run_1t");
    const runtime::Stats before = runtime::GetStats();
    Result<Run> many = RunScis(train, 0, "bench.scis_run");
    const runtime::Stats after = runtime::GetStats();
    obs::SetTraceEnabled(false);
    pool.parallel_regions += after.parallel_regions - before.parallel_regions;
    pool.worker_chunks += after.worker_chunks - before.worker_chunks;
    pool.inline_chunks += after.inline_chunks - before.inline_chunks;
    pool.busy_ns += after.busy_ns - before.busy_ns;
    report->Attempt(one.ok());
    report->Attempt(many.ok());
    if (!one.ok() || !many.ok()) {
      report->Check(false, "Scis::Run: " + (one.ok() ? many.status()
                                                     : one.status())
                                               .ToString());
      return 1;
    }
    (traced ? traced_s : untraced_s).push_back(one->seconds + many->seconds);
    t1.push_back(one->seconds);
    tn.push_back(many->seconds);

    // Output checks.
    report->Check(SameBits(one->imputed, many->imputed) &&
                      one->report.n_star == many->report.n_star,
                  "1-thread and nproc-thread runs differ");
    const ScisReport& sr = one->report;
    report->Check(sr.n_star >= 2000 && sr.n_star <= n, "n* outside [n0, N]");
    const Matrix imputed =
        MergeObserved(table.input, norm.InverseTransform(one->imputed));
    std::string why;
    report->Check(CheckImputed(table.input, imputed, norm.lo(), norm.hi(),
                               &why),
                  why);
    const double r = HeldOutRmse(imputed, table.truth, table.eval_mask,
                                 norm.lo(), norm.hi());
    const double mean_rmse = ColumnMeanRmse(table.input, table.truth,
                                            table.eval_mask, norm.lo(),
                                            norm.hi());
    report->Check(r <= kMeanRmseFactor * mean_rmse,
                  "rmse above the column-mean bound");
    rmse.push_back(r);
    report->Set("quality.mean_rmse", mean_rmse);
    dim_initial.push_back(sr.dim_initial_seconds);
    sse.push_back(sr.sse_seconds);
    dim_final.push_back(sr.dim_final_seconds);
    core_impute.push_back(sr.total_seconds - sr.dim_initial_seconds -
                          sr.sse_seconds - sr.dim_final_seconds);
    n_star.push_back(static_cast<double>(sr.n_star));
    rt.push_back(sr.training_sample_rate);
    last_model = std::move(one->model);
    last_train = std::move(train);
  }
  // Runtime-pool counts cover the nproc runs only; one job = one Scis::Run.
  const double runs = static_cast<double>(tn.size());
  const double jobs = 2.0 * runs;
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  const double run_s = Median(t1);
  report->Set("setup_s", Median(setup));
  report->Set("run_s", run_s);
  report->Set("rows_per_s", static_cast<double>(n) / run_s);
  report->Set("rmse", Median(rmse));
  report->Set("runtime.run_s_1t", run_s);
  report->Set("runtime.run_s_nproc", Median(tn));
  report->Set("runtime.speedup", run_s / Median(tn));
  ReportRuntimeDelta(runtime::Stats{}, pool, runs, report);
  report->Set("core.dim_initial_s", Median(dim_initial));
  report->Set("core.sse_s", Median(sse));
  report->Set("core.dim_final_s", Median(dim_final));
  report->Set("core.impute_s", Median(core_impute));
  report->Set("sse.n_star", Median(n_star));
  report->Set("sse.rt", Median(rt));
  report->Set("dim.steps", snap.CounterOr("dim.steps") / jobs);
  report->Set("dim.step_ms_p50", HistogramQuantile(snap, "dim.batch_ms", 0.5));
  report->Set("sse.probes", snap.CounterOr("sse.probes") / jobs);
  report->Set("sse.model_evals", snap.CounterOr("sse.model_evals") / jobs);
  report->Set("ot.sinkhorn_solves", snap.CounterOr("sinkhorn.solves") / jobs);
  report->Set("ot.sinkhorn_iters",
              snap.CounterOr("sinkhorn.iterations") / jobs);
  if (args.trace) {
    report->Set("obs.traced_s", Median(traced_s));
    report->Set("obs.untraced_s", Median(untraced_s));
    report->Set("obs.trace_overhead", Median(traced_s) / Median(untraced_s));
    TimeOtCalls(last_train, report);
    TimeModelImpute(*last_model, last_train, report);
    CountTapePoolMisses(last_train, args.seed, report);
  }
  report->Set("peak_rss_mb", PeakRssMb());
  return 0;
}

}  // namespace scisbench
