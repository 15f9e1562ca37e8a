// impute-tall: the scis_impute pipeline, file to file, at nproc runtime
// threads, on a Weather-shaped table (WeatherSpec(0.1): 491,101 x 9).
//
// Each round makes the same calls in the same order as
// examples/scis_impute.cpp: ReadCsvDataset -> MinMaxNormalizer::FitTransform
// -> Scis::Run (SCIS-GAIN, 100 DIM epochs, eps = 0.001, n0 = 500) ->
// inverse transform + Eq.-1 merge -> WriteCsvDataset.
#include <filesystem>

#include "bench.h"
#include "common/stopwatch.h"
#include "core/scis.h"
#include "data/csv.h"
#include "data/normalizer.h"
#include "eval/experiment.h"
#include "obs/trace.h"

namespace scisbench {

using namespace scis;

namespace {

struct Round {
  double impute_s = 0, read_s = 0, normalize_s = 0, write_s = 0;
  double dim_initial_s = 0, sse_s = 0, dim_final_s = 0, core_impute_s = 0;
  double n_star = 0, rt = 0, rmse = 0;
};

}  // namespace

int RunImputeTall(const Args& args, Report* report) {
  runtime::SetNumThreads(0);  // nproc (SCIS_NUM_THREADS or hardware)
  const std::string in_path = args.work_dir + "/impute_tall_in.csv";
  const std::string out_path = args.work_dir + "/impute_tall_out.csv";

  std::vector<Round> rounds;
  std::vector<double> traced_s, untraced_s;
  obs::Registry::Global().Reset();
  const runtime::Stats rt_before = runtime::GetStats();
  std::unique_ptr<GenerativeImputer> last_model;
  Dataset last_train;
  Matrix last_imputed;
  size_t rows = 0;
  Stopwatch budget;
  std::vector<double> setup;
  while (rounds.empty() || budget.ElapsedSeconds() < args.seconds ||
         (args.trace && traced_s.empty())) {
    // Set-up: each round's input table is generated from the seed and
    // written as CSV (a traced run keeps one table, so traced and untraced
    // rounds compare).
    Stopwatch setup_watch;
    const Table table = MakeTable(
        WeatherSpec(0.1), args.seed * 16 + (args.trace ? 0 : rounds.size()));
    if (Status st = WriteCsvDataset(table.input, in_path); !st.ok()) {
      std::fprintf(stderr, "input write: %s\n", st.ToString().c_str());
      return 1;
    }
    setup.push_back(setup_watch.ElapsedSeconds());
    const size_t n = table.input.num_rows();
    std::vector<double> lo, hi;
    ObservedRange(table.input, &lo, &hi);
    const double mean_rmse =
        ColumnMeanRmse(table.input, table.truth, table.eval_mask, lo, hi);
    report->Set("quality.mean_rmse", mean_rmse);
    rows = n;

    const bool traced = args.trace && rounds.size() % 2 == 1;
    obs::SetTraceEnabled(traced);
    Round r;
    Stopwatch total, step;
    Result<Dataset> loaded = [&] {
      SCIS_TRACE_SPAN("bench.csv_read");
      return ReadCsvDataset(in_path, "input");
    }();
    r.read_s = step.ElapsedSeconds();
    if (!loaded.ok()) {
      report->Attempt(false);
      report->Check(false, "read: " + loaded.status().ToString());
      break;
    }
    Dataset raw = std::move(loaded).value();
    step.Restart();
    MinMaxNormalizer norm;
    Dataset train = [&] {
      SCIS_TRACE_SPAN("bench.normalize");
      return norm.FitTransform(raw);
    }();
    r.normalize_s = step.ElapsedSeconds();

    Result<std::unique_ptr<GenerativeImputer>> gen =
        MakeGenerativeImputer("GAIN", 7);
    ScisOptions opts;
    opts.validation_size = std::min<size_t>(1000, n / 4);
    opts.initial_size = 500;
    opts.dim.epochs = 100;
    opts.dim.lambda = 130.0;
    opts.sse.epsilon = 0.001;
    Scis scis(opts);
    Result<Matrix> res = Status::Internal("model not built");
    if (gen.ok()) {
      SCIS_TRACE_SPAN("bench.scis_run");
      res = scis.Run(**gen, train);
    }
    if (!res.ok()) {
      report->Attempt(false);
      report->Check(false, "Scis::Run: " + res.status().ToString());
      break;
    }
    step.Restart();
    Matrix imputed = [&] {
      SCIS_TRACE_SPAN("bench.denormalize");
      return MergeObserved(raw, norm.InverseTransform(*res));
    }();
    r.normalize_s += step.ElapsedSeconds();
    step.Restart();
    Status wst = [&] {
      SCIS_TRACE_SPAN("bench.csv_write");
      return WriteCsvDataset(
          Dataset::Complete("imputed", imputed, raw.columns()), out_path);
    }();
    r.write_s = step.ElapsedSeconds();
    r.impute_s = total.ElapsedSeconds();
    obs::SetTraceEnabled(false);
    (traced ? traced_s : untraced_s).push_back(r.impute_s);
    report->Attempt(wst.ok());
    report->Check(wst.ok(), "write: " + wst.ToString());

    // Output checks (outside the timed table).
    const ScisReport& sr = scis.report();
    r.dim_initial_s = sr.dim_initial_seconds;
    r.sse_s = sr.sse_seconds;
    r.dim_final_s = sr.dim_final_seconds;
    r.core_impute_s =
        sr.total_seconds - sr.dim_initial_seconds - sr.sse_seconds -
        sr.dim_final_seconds;
    r.n_star = static_cast<double>(sr.n_star);
    r.rt = sr.training_sample_rate;
    report->Check(sr.n_star >= opts.initial_size && sr.n_star <= n,
                  "n* outside [n0, N]");
    report->Check(SameBits(raw.values(), table.input.values()) &&
                      SameBits(raw.mask(), table.input.mask()),
                  "CSV read does not return the generated input");
    std::string why;
    report->Check(CheckImputed(table.input, imputed, lo, hi, &why), why);
    r.rmse = HeldOutRmse(imputed, table.truth, table.eval_mask, lo, hi);
    report->Check(r.rmse <= kMeanRmseFactor * mean_rmse,
                  "rmse above the column-mean bound");
    rounds.push_back(r);
    last_model = std::move(gen).value();
    last_train = std::move(train);
    last_imputed = std::move(imputed);
  }
  const double jobs = static_cast<double>(rounds.size());
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  ReportRuntimeDelta(rt_before, runtime::GetStats(), jobs, report);
  if (rounds.empty() || !last_model) return 1;

  // The written file holds exactly the imputed table.
  Result<Dataset> back = ReadCsvDataset(out_path, "output");
  report->Check(back.ok() && SameBits(back->values(), last_imputed),
                "written CSV does not read back as the imputed table");

  auto med = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    return Median(v);
  };
  const double impute_s = med(&Round::impute_s);
  report->Set("setup_s", Median(setup));
  report->Set("run_s", impute_s);
  report->Set("rows_per_s", static_cast<double>(rows) / impute_s);
  report->Set("rmse", med(&Round::rmse));
  report->Set("data.csv_read_s", med(&Round::read_s));
  report->Set("data.csv_write_s", med(&Round::write_s));
  report->Set("data.normalize_s", med(&Round::normalize_s));
  report->Set("core.dim_initial_s", med(&Round::dim_initial_s));
  report->Set("core.sse_s", med(&Round::sse_s));
  report->Set("core.dim_final_s", med(&Round::dim_final_s));
  report->Set("core.impute_s", med(&Round::core_impute_s));
  report->Set("sse.n_star", med(&Round::n_star));
  report->Set("sse.rt", med(&Round::rt));
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
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
  report->Set("peak_rss_mb", PeakRssMb());
  return 0;
}

}  // namespace scisbench
