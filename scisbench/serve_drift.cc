// serve-drift: an in-process ImputationServer on loopback (default
// BatchQueueOptions, one shard) serving a v3 SCIS-GAIN checkpoint trained on
// an Emergency-shaped table (EmergencySpec(1.0): 8,364 x 22), with a
// LifecycleManager attached through ServerOptions::sample_hook.
//
// Phases, all closed loops of single-row requests:
//   1. one connection;
//   2. nproc connections; then a check that must not find drift;
//   3. nproc connections send drifted rows (a shifted value range and
//      heavier missingness); while they run, one synchronous RunCheck()
//      detects the drift, retrains at n* and hot-swaps;
//   4. a post-swap probe of held-out drifted rows.
// Every reply is compared bit for bit with the offline imputation of its
// row by the checkpoint generation that served it.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <thread>

#include "bench.h"
#include "common/stopwatch.h"
#include "core/scis.h"
#include "data/normalizer.h"
#include "eval/experiment.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/model_rebuild.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"

namespace scisbench {

using namespace scis;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Traffic is sized in units of n*, the rows the served model was trained
// on: SSE confidence falls as the rows served N grow past n*, so the
// baseline phases stop at 1.5 n* (no drift) and the drifted phase pushes N
// to 5 n* (README "serve-drift").
constexpr double kPhase1Share = 0.3;   // one connection
constexpr double kPhase2Share = 1.2;   // all connections together
constexpr double kDriftShare = 3.5;    // drifted rows before the check
constexpr size_t kPostSwapRequests = 10;  // per connection, after the swap
constexpr size_t kProbeRows = 512;         // held back from drift traffic
constexpr double kDriftShift = 0.1;        // x range of the column
constexpr double kDriftExtraMissing = 0.3; // of the observed cells

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Marks the start of a phase on stderr, with the seconds since the first.
void Progress(const char* what) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "[serve-drift %7.2fs] %s\n",
               static_cast<double>(NowNs() - start) / 1e9, what);
}

// Raw rows with NaN at missing cells: the wire format.
Matrix ToWire(const Dataset& data) {
  Matrix m = data.values();
  for (size_t k = 0; k < m.size(); ++k) {
    if (data.mask().data()[k] != 1.0) m.data()[k] = kNaN;
  }
  return m;
}

Dataset FromWire(const Matrix& raw) {
  Matrix values = raw, mask(raw.rows(), raw.cols());
  for (size_t k = 0; k < values.size(); ++k) {
    if (std::isnan(values.data()[k])) {
      values.data()[k] = 0.0;
    } else {
      mask.data()[k] = 1.0;
    }
  }
  return Dataset("wire", std::move(values), std::move(mask),
                 NumericColumns(raw.cols()));
}

// The offline imputer path for a checkpoint: rebuild the trainable model,
// normalize with the stored stats, Imputer::Impute (Eq. 1), denormalize and
// restore the observed cells.
Result<Matrix> ImputeOffline(const std::string& ckpt_path, const Matrix& rows) {
  Result<Checkpoint> ckpt = LoadCheckpoint(ckpt_path);
  if (!ckpt.ok()) return ckpt.status();
  Result<std::unique_ptr<GenerativeImputer>> model =
      lifecycle::RebuildTrainableModel(*ckpt, 1);
  if (!model.ok()) return model.status();
  Result<MinMaxNormalizer> norm =
      MinMaxNormalizer::FromStats(ckpt->meta.norm_lo, ckpt->meta.norm_hi);
  if (!norm.ok()) return norm.status();
  const Dataset raw = FromWire(rows);
  const Matrix out = (*model)->Impute(norm->Transform(raw));
  return MergeObserved(raw, norm->InverseTransform(out));
}

CheckpointMeta MakeMeta(const Dataset& raw, const MinMaxNormalizer& norm) {
  CheckpointMeta meta;
  meta.model = "GAIN";
  for (const ColumnMeta& c : raw.columns()) {
    meta.columns.push_back({c.name, static_cast<int>(c.kind),
                            c.num_categories});
  }
  meta.norm_lo = norm.lo();
  meta.norm_hi = norm.hi();
  return meta;
}

// One request: which pool row it sent, when, and what came back.
struct Sample {
  uint32_t row = 0;
  int64_t start_ns = 0, end_ns = 0;
  bool ok = false;
  std::vector<double> reply;
};

struct Phase {
  std::vector<std::vector<Sample>> per_conn;
  double seconds = 0;
  size_t requests() const {
    size_t n = 0;
    for (const auto& c : per_conn) n += c.size();
    return n;
  }
  std::vector<double> LatenciesMs(int64_t from_ns = 0,
                                  int64_t to_ns = INT64_MAX) const {
    std::vector<double> v;
    for (const auto& c : per_conn) {
      for (const Sample& s : c) {
        if (s.end_ns >= from_ns && s.end_ns <= to_ns) {
          v.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
      }
    }
    return v;
  }
  // Rows completed per second in each kWindowS-second window of the phase,
  // leaving out the first and last window (connections start and stop
  // there), appended to `rates`.
  void WindowRates(std::vector<double>* rates) const {
    constexpr double kWindowS = 0.25;
    int64_t first = INT64_MAX, last = 0;
    for (const auto& c : per_conn) {
      for (const Sample& s : c) {
        first = std::min(first, s.end_ns);
        last = std::max(last, s.end_ns);
      }
    }
    const int windows =
        static_cast<int>(static_cast<double>(last - first) / 1e9 / kWindowS);
    std::vector<double> done(std::max(windows, 0), 0.0);
    for (const auto& c : per_conn) {
      for (const Sample& s : c) {
        const int w =
            static_cast<int>(static_cast<double>(s.end_ns - first) / 1e9 /
                             kWindowS);
        if (w < windows) done[w] += 1.0;
      }
    }
    for (int w = 1; w + 1 < windows; ++w) rates->push_back(done[w] / kWindowS);
  }
};

// Closed loop on one connection: request k sends pool row
// (first + k * stride) % rows. Runs `count` requests, or, with count == 0,
// until `stop` is set and kPostSwapRequests requests have started after
// `swapped_ns`.
void ClosedLoop(int port, const Matrix& pool, size_t first, size_t stride,
                size_t count, const std::atomic<bool>* stop,
                const std::atomic<int64_t>* swapped_ns,
                std::vector<Sample>* out) {
  Result<std::unique_ptr<serve::ImputationClient>> client =
      serve::ImputationClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out->push_back(Sample{});  // one failed request
    return;
  }
  Matrix req(1, pool.cols());
  size_t post_swap = 0;
  for (size_t k = 0;; ++k) {
    if (count > 0 && k >= count) break;
    // The swap, if any, lands before `stop` is set.
    if (count == 0 && stop->load() &&
        (swapped_ns->load() == 0 || post_swap >= kPostSwapRequests)) {
      break;
    }
    Sample s;
    s.row = static_cast<uint32_t>((first + k * stride) % pool.rows());
    std::copy(pool.row_data(s.row), pool.row_data(s.row) + pool.cols(),
              req.row_data(0));
    s.start_ns = NowNs();
    Result<Matrix> got = (*client)->Impute(req);
    s.end_ns = NowNs();
    s.ok = got.ok() && got->rows() == 1 && got->cols() == pool.cols();
    if (s.ok) s.reply.assign(got->data(), got->data() + got->size());
    if (count == 0 && swapped_ns->load() != 0 &&
        s.start_ns > swapped_ns->load()) {
      ++post_swap;
    }
    out->push_back(std::move(s));
  }
}

Phase RunPhase(int port, size_t conns, const Matrix& pool, size_t total,
               const std::atomic<bool>* stop = nullptr,
               const std::atomic<int64_t>* swapped_ns = nullptr,
               const std::function<void()>& while_running = {}) {
  Phase phase;
  phase.per_conn.resize(conns);
  Stopwatch w;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    // Connections interleave over the pool rows.
    const size_t count =
        total == 0 ? 0 : std::max<size_t>(1, (total + conns - 1 - c) / conns);
    threads.emplace_back(ClosedLoop, port, std::cref(pool), c, conns, count,
                         stop, swapped_ns, &phase.per_conn[c]);
  }
  if (while_running) while_running();
  for (std::thread& t : threads) t.join();
  phase.seconds = w.ElapsedSeconds();
  return phase;
}

bool ReplyIs(const Sample& s, const Matrix& expected) {
  return s.ok && std::memcmp(s.reply.data(), expected.row_data(s.row),
                             s.reply.size() * sizeof(double)) == 0;
}

// Everything one set-up builds: the served checkpoint, the lifecycle
// manager, and the running server.
struct Stack {
  std::string dir, ckpt_path;
  ScisReport scis;
  std::unique_ptr<lifecycle::LifecycleManager> mgr;
  std::unique_ptr<serve::ImputationServer> server;
  std::atomic<int64_t> swapped_ns{0};
  std::atomic<int> swaps{0};

  ~Stack() {
    if (server) server->Shutdown();
    if (mgr) mgr->Stop();
  }
};

Status SetUp(const Table& table, const std::string& dir, Stack* stack) {
  SCIS_TRACE_SPAN("bench.setup");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  stack->dir = dir;
  MinMaxNormalizer norm;
  const Dataset train = norm.FitTransform(table.input);
  Result<std::unique_ptr<GenerativeImputer>> gen =
      MakeGenerativeImputer("GAIN", 7);
  if (!gen.ok()) return gen.status();
  // scis_impute's defaults: 30 epochs, n0 = 500, eps = 0.001.
  ScisOptions opts;
  opts.validation_size = std::min<size_t>(1000, train.num_rows() / 4);
  opts.initial_size = 500;
  opts.dim.epochs = 30;
  opts.dim.lambda = 130.0;
  opts.sse.epsilon = 0.001;
  Scis scis(opts);
  // Trained at 1 runtime thread: set-up time then does not move with other
  // load on the machine (README "Steadiness"). The server runs at nproc.
  runtime::SetNumThreads(1);
  Result<Matrix> res = scis.Run(**gen, train);
  runtime::SetNumThreads(0);
  if (!res.ok()) {
    return res.status();
  }
  stack->scis = scis.report();
  stack->ckpt_path = dir + "/served.bin";
  if (Status st = SaveCheckpointBinary((*gen)->generator_params(),
                                       MakeMeta(table.input, norm),
                                       stack->ckpt_path);
      !st.ok()) {
    return st;
  }
  Result<std::shared_ptr<const serve::ImputationEngine>> engine =
      serve::ImputationEngine::Load(stack->ckpt_path);
  if (!engine.ok()) return engine.status();
  Result<Checkpoint> ckpt = LoadCheckpoint(stack->ckpt_path);
  if (!ckpt.ok()) return ckpt.status();

  lifecycle::LifecycleOptions lopts;
  lopts.dir = dir + "/lifecycle";
  // The served model was trained on n* rows.
  lopts.drift.initial_trained_rows = stack->scis.n_star;
  lopts.drift.retrain_cap_rows = 2048;
  lopts.drift.retrain.epochs = 30;
  lopts.drift.retrain.lambda = 130.0;
  Stack* s = stack;
  Result<std::unique_ptr<lifecycle::LifecycleManager>> mgr =
      lifecycle::LifecycleManager::Create(
          *ckpt,
          [s](std::shared_ptr<const serve::ImputationEngine> next) {
            Status st = s->server->HotSwap(std::move(next));
            if (st.ok()) {
              s->swapped_ns.store(NowNs());
              s->swaps.fetch_add(1);
            }
            return st;
          },
          lopts);
  if (!mgr.ok()) return mgr.status();
  stack->mgr = std::move(mgr).value();

  serve::ServerOptions sopts;  // default BatchQueueOptions, one shard
  sopts.sample_hook = stack->mgr->SampleHook();
  stack->server = std::make_unique<serve::ImputationServer>(
      std::move(engine).value(), sopts);
  if (Status st = stack->server->Start(); !st.ok()) return st;
  Result<std::unique_ptr<serve::ImputationClient>> client =
      serve::ImputationClient::Connect("127.0.0.1", stack->server->port());
  if (!client.ok()) return client.status();
  return (*client)->Ping();
}

}  // namespace

int RunServeDrift(const Args& args, Report* report) {
  runtime::SetNumThreads(0);
  const size_t conns = static_cast<size_t>(runtime::NumThreads());
  const Table table = MakeTable(EmergencySpec(1.0), args.seed);
  const size_t n = table.input.num_rows(), d = table.input.num_cols();

  // Set-up three times: training, checkpoint, lifecycle, server start and
  // the first ping. The last stack serves the run.
  std::vector<double> setup;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < 3; ++rep) {
    stack.reset();
    stack = std::make_unique<Stack>();
    Stopwatch w;
    Status st = SetUp(table, args.work_dir + "/serve_drift", stack.get());
    setup.push_back(w.ElapsedSeconds());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  const int port = stack->server->port();
  lifecycle::LifecycleManager& mgr = *stack->mgr;
  const std::vector<double>& lo = mgr.controller().meta().norm_lo;
  const std::vector<double>& hi = mgr.controller().meta().norm_hi;

  // Traffic pools. Baseline: the table's rows. Drift: the same rows moved up
  // by kDriftShift of each column's range, with kDriftExtraMissing of the
  // observed cells dropped; the last kProbeRows rows are held back for the
  // probe, with the held-out cells' truth moved the same way.
  const Matrix base_pool = ToWire(table.input);
  Matrix drift_all = base_pool, probe_truth = table.truth;
  Rng drift_rng(args.seed * 31 + 7);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const double shift = kDriftShift * (hi[j] - lo[j]);
      if (!std::isnan(drift_all(i, j))) {
        drift_all(i, j) = drift_rng.Bernoulli(kDriftExtraMissing)
                              ? kNaN
                              : drift_all(i, j) + shift;
      }
      if (table.eval_mask(i, j) == 1.0) probe_truth(i, j) += shift;
    }
  }
  std::vector<size_t> traffic_rows(n - kProbeRows), probe_rows(kProbeRows);
  for (size_t i = 0; i < n; ++i) {
    (i < n - kProbeRows ? traffic_rows[i] : probe_rows[i - (n - kProbeRows)]) =
        i;
  }
  const Matrix drift_pool = drift_all.GatherRows(traffic_rows);
  const Matrix probe = drift_all.GatherRows(probe_rows);
  const Matrix probe_eval = table.eval_mask.GatherRows(probe_rows);
  const Matrix probe_true = probe_truth.GatherRows(probe_rows);

  // Phase 1: one connection. With tracing, the first half runs untraced and
  // the second traced, for the overhead ratio.
  const double n_star = static_cast<double>(stack->scis.n_star);
  auto share = [&](double k) {
    return static_cast<size_t>(std::llround(k * n_star));
  };
  const size_t phase1 = share(kPhase1Share);
  Progress("phase 1");
  Phase p1 = RunPhase(port, 1, base_pool, args.trace ? phase1 / 2 : phase1);
  Phase p1_traced;
  if (args.trace) {
    obs::SetTraceEnabled(true);
    p1_traced = RunPhase(port, 1, base_pool, phase1 - phase1 / 2);
  }

  // Phase 2: nproc connections; the serve.* histograms cover this phase.
  obs::Registry::Global().Reset();
  const size_t phase2 = share(kPhase2Share);
  Progress("phase 2");
  Phase p2 = RunPhase(port, conns, base_pool, phase2);
  const obs::MetricsSnapshot serve_snap = obs::Registry::Global().Snapshot();

  Progress("baseline check");
  Stopwatch check_watch;
  Result<lifecycle::DriftController::CheckOutcome> quiet = [&] {
    SCIS_TRACE_SPAN("bench.run_check");
    return mgr.RunCheck();
  }();
  const double check_s = check_watch.ElapsedSeconds();

  // Phase 3: drifted rows, then the drift check under live traffic. The tap
  // is drained between the two, so the timed check's own drain covers only
  // rows of the live traffic, not the backlog of the pre-check rows.
  Progress("phase 3");
  Phase p3a = RunPhase(port, conns, drift_pool, share(kDriftShare));
  mgr.tap().Drain();
  std::atomic<bool> stop{false};
  int64_t check_start_ns = 0, check_end_ns = 0;
  Result<lifecycle::DriftController::CheckOutcome> drift =
      Status::Internal("drift check did not run");
  Progress("drift check");
  Phase p3b = RunPhase(port, conns, drift_pool, 0, &stop, &stack->swapped_ns,
                       [&] {
                         check_start_ns = NowNs();
                         {
                           SCIS_TRACE_SPAN("bench.run_check_drift");
                           drift = mgr.RunCheck();
                         }
                         check_end_ns = NowNs();
                         stop.store(true);
                       });

  Progress("phase 4");
  // Phase 4: the post-swap probe, in 64-row requests.
  std::vector<Matrix> probe_replies;
  size_t probe_failed = 0;
  {
    Result<std::unique_ptr<serve::ImputationClient>> client =
        serve::ImputationClient::Connect("127.0.0.1", port);
    for (size_t at = 0; at < kProbeRows; at += 64) {
      std::vector<size_t> idx;
      for (size_t i = at; i < std::min(kProbeRows, at + 64); ++i) {
        idx.push_back(i);
      }
      Result<Matrix> got = client.ok()
                               ? (*client)->Impute(probe.GatherRows(idx))
                               : Result<Matrix>(client.status());
      if (got.ok()) {
        probe_replies.push_back(std::move(got).value());
      } else {
        ++probe_failed;
      }
    }
  }
  obs::SetTraceEnabled(false);
  mgr.tap().Drain();

  // Operation accounting: every request, plus the two checks. Tap drops and
  // rollbacks count as failed operations.
  size_t requests = kProbeRows / 64 + (kProbeRows % 64 != 0);
  size_t failed = probe_failed;
  for (const Phase* p : {&p1, &p1_traced, &p2, &p3a, &p3b}) {
    for (const auto& c : p->per_conn) {
      for (const Sample& s : c) {
        ++requests;
        failed += !s.ok;
      }
    }
  }
  const obs::MetricsSnapshot end_snap = obs::Registry::Global().Snapshot();
  failed += mgr.tap().dropped_rows();
  failed += end_snap.CounterOr("lifecycle.rollbacks");
  failed += !quiet.ok() + !drift.ok();
  report->Count(requests + 2, failed);

  // Checks on the lifecycle outcome.
  report->Check(quiet.ok() && quiet->checked && !quiet->drifted,
                "the baseline check found drift");
  report->Check(drift.ok() && drift->drifted && drift->retrained &&
                    drift->published,
                "the drift check did not retrain and publish");
  report->Check(stack->swaps.load() == 1 &&
                    mgr.publisher().generation() == 1 &&
                    end_snap.CounterOr("lifecycle.rollbacks") == 0,
                "expected exactly one swap and no rollback");
  if (drift.ok()) {
    const size_t n0 = std::min(drift->trained_rows, drift->total_rows);
    report->Check(drift->n_star >= n0 && drift->n_star <= drift->total_rows,
                  "lifecycle n* outside [n0, N]");
  }
  const ScisReport& sr = stack->scis;
  report->Check(sr.n_star >= 500 && sr.n_star <= n, "n* outside [n0, N]");

  // Every reply equals the offline imputation by the generation that served
  // it: generation 0 before the drift check, generation 1 for requests sent
  // after the swap, either one (whole) in between.
  const std::string gen1_path =
      mgr.publisher().dir() + "/gen-000001.bin";
  Result<Matrix> base0 = ImputeOffline(stack->ckpt_path, base_pool);
  Result<Matrix> drift0 = ImputeOffline(stack->ckpt_path, drift_pool);
  Result<Matrix> drift1 = ImputeOffline(gen1_path, drift_pool);
  Result<Matrix> probe0 = ImputeOffline(stack->ckpt_path, probe);
  Result<Matrix> probe1 = ImputeOffline(gen1_path, probe);
  const bool offline_ok =
      base0.ok() && drift0.ok() && drift1.ok() && probe0.ok() && probe1.ok();
  report->Check(offline_ok, "offline imputation of a generation failed");
  if (!offline_ok) return 1;
  const int64_t swap_ns = stack->swapped_ns.load();
  size_t mismatched = 0;
  for (const Phase* p : {&p1, &p1_traced, &p2}) {
    for (const auto& c : p->per_conn) {
      for (const Sample& s : c) mismatched += s.ok && !ReplyIs(s, *base0);
    }
  }
  for (const Phase* p : {&p3a, &p3b}) {
    for (const auto& c : p->per_conn) {
      for (const Sample& s : c) {
        if (!s.ok) continue;
        const bool gen0 = ReplyIs(s, *drift0), gen1 = ReplyIs(s, *drift1);
        if (s.end_ns < check_start_ns) {
          mismatched += !gen0;
        } else if (swap_ns != 0 && s.start_ns > swap_ns) {
          mismatched += !gen1;
        } else {
          mismatched += !gen0 && !gen1;
        }
      }
    }
  }
  Matrix probe_served(kProbeRows, d);
  for (size_t b = 0, at = 0; b < probe_replies.size(); ++b) {
    std::copy(probe_replies[b].data(),
              probe_replies[b].data() + probe_replies[b].size(),
              probe_served.row_data(at));
    at += probe_replies[b].rows();
  }
  report->Check(mismatched == 0,
                std::to_string(mismatched) +
                    " replies differ from their generation's offline "
                    "imputation");
  report->Check(probe_failed == 0 && SameBits(probe_served, *probe1),
                "the post-swap probe is not generation 1's imputation");

  // Quality on the probe, in the served normalizer's units.
  const Dataset probe_ds = FromWire(probe);
  std::string why;
  report->Check(CheckImputed(probe_ds, probe_served, lo, hi, &why), why);
  const double rmse = HeldOutRmse(probe_served, probe_true, probe_eval, lo, hi);
  const double mean_rmse =
      ColumnMeanRmse(FromWire(drift_pool), probe_true, probe_eval, lo, hi);
  report->Check(rmse <= kMeanRmseFactor * mean_rmse,
                "rmse above the column-mean bound");

  const double drift_to_swap_s =
      swap_ns == 0 ? 0.0 : static_cast<double>(swap_ns - check_start_ns) / 1e9;
  report->Set("setup_s", Median(setup));
  // run_s: what one caller waits for one row, at one connection.
  report->Set("run_s", Median(p1.LatenciesMs()) / 1e3);
  // rows_per_s: the median window over both nproc-connection phases before
  // the drift check, so one stall does not move the figure.
  std::vector<double> rates;
  p2.WindowRates(&rates);
  p3a.WindowRates(&rates);
  report->Set("rows_per_s", Median(rates));
  report->Set("rmse", rmse);
  report->Set("quality.mean_rmse", mean_rmse);
  report->Set("serve.p50_ms_1conn", Median(p1.LatenciesMs()));
  report->Set("serve.p50_ms_nconn", Median(p2.LatenciesMs()));
  report->Set("serve.p99_ms_nconn", Quantile(p2.LatenciesMs(), 0.99));
  report->Set("serve.p50_ms_retrain",
              Median(p3b.LatenciesMs(check_start_ns, check_end_ns)));
  report->Set("serve.rows_per_s_1conn",
              static_cast<double>(p1.requests()) / p1.seconds);
  report->Set("serve.batches", serve_snap.CounterOr("serve.batches"));
  const auto rows_hist = serve_snap.histograms.find("serve.batch_rows");
  if (rows_hist != serve_snap.histograms.end() && rows_hist->second.count) {
    report->Set("serve.rows_per_batch",
                rows_hist->second.sum / rows_hist->second.count);
  }
  report->Set("serve.batch_ms_p50",
              HistogramQuantile(serve_snap, "serve.batch_ms", 0.5));
  report->Set("serve.request_ms_p50",
              HistogramQuantile(serve_snap, "serve.request_ms", 0.5));
  report->Set("lifecycle.check_s", check_s);
  report->Set("lifecycle.drift_to_swap_s", drift_to_swap_s);
  report->Set("lifecycle.n_star", drift.ok() ? drift->n_star : 0);
  report->Set("lifecycle.confidence_quiet", quiet.ok() ? quiet->confidence : 0);
  report->Set("lifecycle.confidence_drift", drift.ok() ? drift->confidence : 0);
  report->Set("lifecycle.rmse_pre_swap",
              HeldOutRmse(*probe0, probe_true, probe_eval, lo, hi));
  report->Set("lifecycle.store_rows", static_cast<double>(mgr.store().num_rows()));
  report->Set("core.dim_initial_s", sr.dim_initial_seconds);
  report->Set("core.sse_s", sr.sse_seconds);
  report->Set("core.dim_final_s", sr.dim_final_seconds);
  report->Set("core.impute_s", sr.total_seconds - sr.dim_initial_seconds -
                                   sr.sse_seconds - sr.dim_final_seconds);
  report->Set("sse.n_star", static_cast<double>(sr.n_star));
  report->Set("sse.rt", sr.training_sample_rate);
  if (args.trace) {
    const double untraced = Median(p1.LatenciesMs()) / 1e3;
    const double traced = Median(p1_traced.LatenciesMs()) / 1e3;
    report->Set("obs.traced_s", traced);
    report->Set("obs.untraced_s", untraced);
    report->Set("obs.trace_overhead", traced / untraced);
    Result<std::shared_ptr<const serve::ImputationEngine>> engine =
        serve::ImputationEngine::Load(stack->ckpt_path);
    if (engine.ok()) {
      for (size_t rows : {size_t{1}, size_t{64}}) {
        std::vector<size_t> idx(rows);
        for (size_t i = 0; i < rows; ++i) idx[i] = i;
        const Matrix batch = base_pool.GatherRows(idx);
        Stopwatch w;
        size_t calls = 0;
        while (calls < 100 || w.ElapsedSeconds() < 0.2) {
          report->Check((*engine)->ImputeBatch(batch).ok(),
                        "ImputeBatch failed");
          ++calls;
        }
        report->Set("serve.engine_us_per_row_" + std::to_string(rows),
                    w.ElapsedSeconds() * 1e6 / static_cast<double>(calls * rows));
      }
    }
  }
  stack.reset();  // server down before the 1-thread direct calls
  if (args.trace) {
    MinMaxNormalizer norm;
    const Dataset train = norm.FitTransform(table.input);
    Result<Checkpoint> ckpt = LoadCheckpoint(args.work_dir +
                                             "/serve_drift/served.bin");
    if (ckpt.ok()) {
      Result<std::unique_ptr<GenerativeImputer>> model =
          lifecycle::RebuildTrainableModel(*ckpt, 1);
      if (model.ok()) TimeModelImpute(**model, train, report);
    }
    TimeOtCalls(train, report);
    CountTapePoolMisses(train, args.seed, report);
  }
  std::filesystem::remove_all(args.work_dir + "/serve_drift");
  report->Set("peak_rss_mb", PeakRssMb());
  return 0;
}

}  // namespace scisbench
