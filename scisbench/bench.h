// Shared pieces of the SCIS benchmark: the run report, input generation,
// the output checks every workload applies, and the direct per-call timings
// of single layers.
//
// The benchmark measures the program from outside: it only calls the public
// functions of the repo's libraries and reads the counters they export
// through src/obs. Spans it records are its own ("bench.*"), wrapped around
// those calls; it adds none inside src/.
#ifndef SCISBENCH_BENCH_H_
#define SCISBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/covid_synth.h"
#include "data/dataset.h"
#include "models/imputer.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "tensor/matrix.h"

namespace scisbench {

using scis::Dataset;
using scis::Matrix;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace written here when trace is on
  std::string work_dir;    // scratch files (CSV in/out, checkpoints, store)
};

// What one run prints: metric values by name, operations attempted and
// failed, and every output check that did not hold.
class Report {
 public:
  void Set(const std::string& name, double value) { metrics_[name] = value; }
  // Records an output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Attempt(bool ok) { Count(1, ok ? 0 : 1); }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::string> check_failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// A generated table in raw units with 20% of its observed cells held out.
struct Table {
  Dataset input;     // held-out cells removed (missing)
  Matrix eval_mask;  // 1 at held-out cells
  Matrix truth;      // raw values at held-out cells
};

// The spec's table drawn from `seed`: the same seed gives the same table.
Table MakeTable(scis::SyntheticSpec spec, uint64_t seed);

// Observed min / max per column (the normalizer's range).
void ObservedRange(const Dataset& data, std::vector<double>* lo,
                   std::vector<double>* hi);

// Eq. 1 and range checks on an imputation of `input` in raw units: observed
// cells come back bit for bit; every imputed cell is finite and inside
// [lo_j, hi_j], the range of the normalizer the model imputes through.
bool CheckImputed(const Dataset& input, const Matrix& imputed,
                  const std::vector<double>& lo, const std::vector<double>& hi,
                  std::string* why);

// RMSE over the held-out cells in normalized units ((x - lo) / (hi - lo)).
double HeldOutRmse(const Matrix& imputed, const Matrix& truth,
                   const Matrix& eval_mask, const std::vector<double>& lo,
                   const std::vector<double>& hi);

// The same RMSE for column-mean imputation: each held-out cell predicted by
// the mean of its column's observed cells in `input`.
double ColumnMeanRmse(const Dataset& input, const Matrix& truth,
                      const Matrix& eval_mask, const std::vector<double>& lo,
                      const std::vector<double>& hi);

// The quality check: a workload's RMSE may be at most this factor above
// the column-mean RMSE on the same cells (README "Output checks").
constexpr double kMeanRmseFactor = 1.25;

// Eq. 1 merge in raw units: the inverse-transformed model output with the
// observed input cells restored exactly.
Matrix MergeObserved(const Dataset& raw, Matrix imputed);

bool SameBits(const Matrix& a, const Matrix& b);

double Median(std::vector<double> v);
// Linear-interpolated quantile q in [0, 1] of the samples.
double Quantile(std::vector<double> v, double q);
// Quantile q from an obs histogram, interpolated inside the bucket.
double HistogramQuantile(const scis::obs::MetricsSnapshot& snap,
                         const std::string& name, double q);

double PeakRssMb();

// Work counted by the runtime pool between two snapshots.
void ReportRuntimeDelta(const scis::runtime::Stats& before,
                        const scis::runtime::Stats& after, double jobs,
                        Report* report);

// Per-call times of the OT glue on two 128-row batches of `normalized`
// (ot.masked_cost_us, ot.masked_grad_us, ot.sinkhorn_us) at DIM's Sinkhorn
// settings.
void TimeOtCalls(const Dataset& normalized, Report* report);

// models.impute_rows_per_s: GenerativeImputer::Impute over every row.
void TimeModelImpute(const scis::GenerativeImputer& model,
                     const Dataset& normalized, Report* report);

// autodiff.tape_pool_misses: tape-pool misses in the second DIM step of a
// fresh trainer on the workload's own rows (steady state should be 0).
void CountTapePoolMisses(const Dataset& normalized, uint64_t seed,
                         Report* report);

int RunImputeTall(const Args& args, Report* report);
int RunTrainWide(const Args& args, Report* report);
int RunServeDrift(const Args& args, Report* report);

}  // namespace scisbench

#endif  // SCISBENCH_BENCH_H_
