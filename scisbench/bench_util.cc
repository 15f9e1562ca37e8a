#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "common/stopwatch.h"
#include "core/dim.h"
#include "data/missingness.h"
#include "eval/experiment.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "ot/masked_cost.h"
#include "ot/sinkhorn.h"

namespace scisbench {

using namespace scis;

void Report::Check(bool ok, const std::string& what) {
  if (!ok) check_failures_.push_back(what);
}

std::string Report::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(check_failures_.empty());
  w.Key("attempted");
  w.Uint(attempted_);
  w.Key("failed");
  w.Uint(failed_);
  w.Key("check_failures");
  w.BeginArray();
  for (const std::string& f : check_failures_) w.String(f);
  w.EndArray();
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, value] : metrics_) {
    w.Key(name);
    w.Double(value);
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

Table MakeTable(SyntheticSpec spec, uint64_t seed) {
  SCIS_TRACE_SPAN("bench.make_table");
  spec.seed = spec.seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  LabeledDataset gen = GenerateSynthetic(spec);
  Rng rng(seed + 1);
  HoldOut h = MakeHoldOut(gen.incomplete, 0.2, rng);
  return Table{std::move(h.train), std::move(h.eval_mask),
               std::move(h.truth)};
}

void ObservedRange(const Dataset& data, std::vector<double>* lo,
                   std::vector<double>* hi) {
  const size_t d = data.num_cols();
  lo->assign(d, INFINITY);
  hi->assign(d, -INFINITY);
  for (size_t i = 0; i < data.num_rows(); ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (!data.IsObserved(i, j)) continue;
      const double v = data.values()(i, j);
      (*lo)[j] = std::min((*lo)[j], v);
      (*hi)[j] = std::max((*hi)[j], v);
    }
  }
}

bool CheckImputed(const Dataset& input, const Matrix& imputed,
                  const std::vector<double>& lo, const std::vector<double>& hi,
                  std::string* why) {
  if (imputed.rows() != input.num_rows() ||
      imputed.cols() != input.num_cols()) {
    *why = "imputed shape differs from the input";
    return false;
  }
  for (size_t i = 0; i < imputed.rows(); ++i) {
    for (size_t j = 0; j < imputed.cols(); ++j) {
      const double v = imputed(i, j);
      if (input.IsObserved(i, j)) {
        const double in = input.values()(i, j);
        if (std::memcmp(&v, &in, sizeof(v)) != 0) {
          *why = "observed cell (" + std::to_string(i) + "," +
                 std::to_string(j) + ") changed";
          return false;
        }
      } else if (!std::isfinite(v) || v < lo[j] || v > hi[j]) {
        *why = "imputed cell (" + std::to_string(i) + "," +
               std::to_string(j) + ") = " + std::to_string(v) +
               " outside its column range";
        return false;
      }
    }
  }
  return true;
}

double HeldOutRmse(const Matrix& imputed, const Matrix& truth,
                   const Matrix& eval_mask, const std::vector<double>& lo,
                   const std::vector<double>& hi) {
  double se = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < truth.rows(); ++i) {
    for (size_t j = 0; j < truth.cols(); ++j) {
      if (eval_mask(i, j) != 1.0) continue;
      const double span = hi[j] - lo[j];
      const double e = (imputed(i, j) - truth(i, j)) / span;
      se += e * e;
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::sqrt(se / static_cast<double>(n));
}

double ColumnMeanRmse(const Dataset& input, const Matrix& truth,
                      const Matrix& eval_mask, const std::vector<double>& lo,
                      const std::vector<double>& hi) {
  const size_t d = input.num_cols();
  std::vector<double> sum(d, 0.0), count(d, 0.0);
  for (size_t i = 0; i < input.num_rows(); ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (!input.IsObserved(i, j)) continue;
      sum[j] += input.values()(i, j);
      count[j] += 1.0;
    }
  }
  Matrix mean_fill(truth.rows(), d);
  for (size_t i = 0; i < truth.rows(); ++i) {
    for (size_t j = 0; j < d; ++j) {
      mean_fill(i, j) = count[j] > 0 ? sum[j] / count[j] : 0.0;
    }
  }
  return HeldOutRmse(mean_fill, truth, eval_mask, lo, hi);
}

Matrix MergeObserved(const Dataset& raw, Matrix imputed) {
  for (size_t i = 0; i < raw.num_rows(); ++i) {
    for (size_t j = 0; j < raw.num_cols(); ++j) {
      if (raw.IsObserved(i, j)) imputed(i, j) = raw.values()(i, j);
    }
  }
  return imputed;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t at = static_cast<size_t>(pos);
  if (at + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(at);
  return v[at] + frac * (v[at + 1] - v[at]);
}

double HistogramQuantile(const obs::MetricsSnapshot& snap,
                         const std::string& name, double q) {
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
  const auto& h = it->second;
  const double target = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (size_t b = 0; b < h.counts.size(); ++b) {
    const double c = static_cast<double>(h.counts[b]);
    if (c > 0 && seen + c >= target) {
      // Overflow bucket: report its lower edge, the largest known bound.
      if (b >= h.bounds.size()) return h.bounds.back();
      const double lower = b == 0 ? 0.0 : h.bounds[b - 1];
      return lower + (h.bounds[b] - lower) * (target - seen) / c;
    }
    seen += c;
  }
  return h.bounds.back();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ReportRuntimeDelta(const runtime::Stats& before,
                        const runtime::Stats& after, double jobs,
                        Report* report) {
  report->Set("runtime.parallel_regions",
              static_cast<double>(after.parallel_regions -
                                  before.parallel_regions) / jobs);
  report->Set("runtime.worker_chunks",
              static_cast<double>(after.worker_chunks - before.worker_chunks) /
                  jobs);
  report->Set("runtime.inline_chunks",
              static_cast<double>(after.inline_chunks - before.inline_chunks) /
                  jobs);
  report->Set("runtime.busy_s",
              static_cast<double>(after.busy_ns - before.busy_ns) / 1e9 /
                  jobs);
}

namespace {

// Runs `fn` until it has taken at least `min_s` seconds (and at least
// `min_calls` times); returns microseconds per call.
template <typename Fn>
double MicrosPerCall(Fn&& fn, double min_s = 0.2, int min_calls = 5) {
  fn();  // warm caches and lazy set-up
  Stopwatch w;
  int calls = 0;
  while (calls < min_calls || w.ElapsedSeconds() < min_s) {
    fn();
    ++calls;
  }
  return w.ElapsedSeconds() * 1e6 / calls;
}

}  // namespace

void TimeOtCalls(const Dataset& normalized, Report* report) {
  SCIS_TRACE_SPAN("bench.ot_calls");
  runtime::SetNumThreads(1);  // per-call cost, comparable across workloads
  const size_t batch = 128;
  std::vector<size_t> ia(batch), ib(batch);
  for (size_t i = 0; i < batch; ++i) {
    ia[i] = i;
    ib[i] = batch + i;
  }
  const Matrix a = normalized.values().GatherRows(ia);
  const Matrix ma = normalized.mask().GatherRows(ia);
  const Matrix b = normalized.values().GatherRows(ib);
  const Matrix mb = normalized.mask().GatherRows(ib);
  SinkhornOptions sopts;  // DIM's settings (core/dim.cc)
  const DimOptions dim;
  sopts.lambda = dim.lambda;
  sopts.max_iters = dim.sinkhorn_iters;
  sopts.rank = dim.sinkhorn_rank;
  double sink = 0.0;
  report->Set("ot.masked_cost_us", MicrosPerCall([&] {
                sink += MaskedCostMatrix(a, ma, b, mb)(0, 0);
              }));
  const SinkhornSolution sol = SolveSinkhornMasked(a, ma, b, mb, sopts);
  report->Set("ot.sinkhorn_us", MicrosPerCall([&] {
                sink += SolveSinkhornMasked(a, ma, b, mb, sopts).reg_value;
              }));
  report->Set("ot.masked_grad_us", MicrosPerCall([&] {
                sink += MaskedOtGradWrtA(sol.plan, a, ma, b, mb)(0, 0);
                sink += MaskedOtGradWrtB(sol.plan, a, ma, b, mb)(0, 0);
              }));
  report->Check(std::isfinite(sink), "OT calls returned a non-finite value");
  runtime::SetNumThreads(0);
}

void TimeModelImpute(const GenerativeImputer& model, const Dataset& normalized,
                     Report* report) {
  SCIS_TRACE_SPAN("bench.model_impute");
  Stopwatch w;
  const Matrix out = model.Impute(normalized);
  const double s = w.ElapsedSeconds();
  report->Set("models.impute_rows_per_s",
              static_cast<double>(out.rows()) / s);
}

void CountTapePoolMisses(const Dataset& normalized, uint64_t seed,
                         Report* report) {
  SCIS_TRACE_SPAN("bench.tape_pool");
  std::vector<size_t> rows(128);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const Dataset batch = normalized.GatherRows(rows);
  Result<std::unique_ptr<GenerativeImputer>> model =
      MakeGenerativeImputer("GAIN", seed);
  report->Check(model.ok(), "MakeGenerativeImputer failed");
  if (!model.ok()) return;
  DimOptions opts;
  opts.epochs = 1;  // one 128-row batch: one step per Train call
  DimTrainer trainer(opts);
  Status s1 = trainer.Train(**model, batch);
  const uint64_t after_first = trainer.gen_pool_stats().misses;
  Status s2 = trainer.Train(**model, batch);
  report->Check(s1.ok() && s2.ok(), "DimTrainer::Train failed");
  report->Set("autodiff.tape_pool_misses",
              static_cast<double>(trainer.gen_pool_stats().misses -
                                  after_first));
}

}  // namespace scisbench
