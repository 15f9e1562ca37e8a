// scis_serve — online imputation server (event-driven).
//
//   scis_serve --params a.ckpt[,b.ckpt,...] [--host 127.0.0.1] \
//              [--port 0] [--port_file serve.port] \
//              [--threads 0] [--max_batch_rows 64] [--max_wait_ms 2] \
//              [--max_queue_rows 1024] [--request_timeout_ms 0] \
//              [--index train.annidx] [--retrieval_k 10] \
//              [--retrieval_blend 0.5] [--report-out report.json]
//
// Maps one or more checkpoints (scis_impute --save_params) and serves them
// behind one epoll event loop: requests route to the model matching their
// column count, and each model micro-batches through one queue. Results are
// bit-identical to the offline Imputer on the same rows.
//
// SIGHUP re-loads every --params checkpoint from disk and hot-swaps it in
// under traffic (same schema widths required). SIGINT/SIGTERM or a client
// --shutdown stop the server gracefully.
//
// --port 0 binds an ephemeral port; --port_file publishes the assigned port
// for scripts (the CI loopback smoke test uses this).
//
// --index attaches an ANN index over the training rows (write one with
// scis_impute --save_index) to the single served model: each missing cell
// then blends the generator output with the observed mean of the retrieved
// nearest training rows. Incompatible with multi-model serving.
//
// --lifecycle turns on SSE-driven continuous learning (single model only):
// every admitted request's rows are tapped into an append-only sample store
// under --lifecycle_dir, a background controller re-runs the SSE confidence
// estimate every --lifecycle_interval_ms, and when P(D(θ_n, θ_N) ≤ ε)
// drops below 1−α it retrains on the SSE-chosen n* and hot-swaps the new
// checkpoint into the fleet (published under <dir>/checkpoints). The
// confidence / n* / swap-generation metrics land in --report-out.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stopwatch.h"
#include "lifecycle/lifecycle.h"
#include "nn/serialize.h"
#include "obs/run_report.h"
#include "runtime/runtime.h"
#include "serve/checkpoint_loader.h"
#include "serve/server.h"

using namespace scis;

namespace {

serve::ImputationServer* g_server = nullptr;
std::atomic<bool> g_reload{false};

void HandleSignal(int) {
  if (g_server != nullptr) g_server->Shutdown();
}

void HandleReload(int) { g_reload.store(true); }

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t at = 0;
  while (at <= s.size()) {
    const size_t comma = s.find(',', at);
    const size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > at) out.push_back(s.substr(at, end - at));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string params, host = "127.0.0.1", port_file, report_out, index_path;
  long long port = 0;
  long long threads = 0;
  long long max_batch_rows = 64;
  long long max_queue_rows = 1024;
  long long retrieval_k = 10;
  double max_wait_ms = 2.0;
  double request_timeout_ms = 0.0;
  double retrieval_blend = 0.5;
  bool lifecycle = false;
  std::string lifecycle_dir;
  double lifecycle_interval_ms = 5000.0;
  double lifecycle_epsilon = 0.001;
  double lifecycle_alpha = 0.05;
  double lifecycle_eta_scale = 1e-5;
  long long lifecycle_min_rows = 64;
  long long lifecycle_n0 = 0;
  long long lifecycle_retrain_epochs = 4;
  long long lifecycle_retrain_cap = 4096;
  FlagParser flags;
  flags.AddString("params", &params,
                  "comma-separated checkpoints (scis_impute "
                  "--save_params); schema widths must be unique");
  flags.AddString("host", &host, "bind address (dotted quad)");
  flags.AddInt("port", &port, "TCP port (0 = ephemeral)");
  flags.AddString("port_file", &port_file,
                  "write the bound port here once listening");
  flags.AddInt("threads", &threads,
               "worker threads (0 = SCIS_NUM_THREADS or hardware)");
  flags.AddInt("max_batch_rows", &max_batch_rows,
               "flush a micro-batch at this many rows");
  flags.AddInt("max_queue_rows", &max_queue_rows,
               "admission bound; beyond it requests are rejected");
  flags.AddDouble("max_wait_ms", &max_wait_ms,
                  "flush deadline from the oldest queued request");
  flags.AddDouble("request_timeout_ms", &request_timeout_ms,
                  "fail requests queued longer than this (0 = off)");
  flags.AddString("index", &index_path,
                  "ANN index from scis_impute --save_index "
                  "(enables retrieval-augmented imputation)");
  flags.AddInt("retrieval_k", &retrieval_k,
               "neighbours retrieved per served row");
  flags.AddDouble("retrieval_blend", &retrieval_blend,
                  "neighbour weight in [0,1] for missing cells");
  flags.AddBool("lifecycle", &lifecycle,
                "enable SSE-driven continuous learning (single model)");
  flags.AddString("lifecycle_dir", &lifecycle_dir,
                  "root for the sample store and published checkpoints");
  flags.AddDouble("lifecycle_interval_ms", &lifecycle_interval_ms,
                  "drift-check cadence");
  flags.AddDouble("lifecycle_epsilon", &lifecycle_epsilon,
                  "SSE tolerated output difference (Eq. 4)");
  flags.AddDouble("lifecycle_alpha", &lifecycle_alpha,
                  "drift when confidence < 1 - alpha");
  flags.AddDouble("lifecycle_eta_scale", &lifecycle_eta_scale,
                  "Theorem-1 eta calibration constant");
  flags.AddInt("lifecycle_min_rows", &lifecycle_min_rows,
               "stored rows required before the first check");
  flags.AddInt("lifecycle_n0", &lifecycle_n0,
               "rows the served model was trained on (0 = min_rows)");
  flags.AddInt("lifecycle_retrain_epochs", &lifecycle_retrain_epochs,
               "DIM epochs per incremental retrain");
  flags.AddInt("lifecycle_retrain_cap", &lifecycle_retrain_cap,
               "row budget per retrain (0 = min(n*, stored rows))");
  flags.AddString("report-out", &report_out,
                  "write a JSON run report on shutdown");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  const std::vector<std::string> param_paths = SplitCommas(params);
  if (param_paths.empty()) {
    std::printf("--params is required (see --help)\n");
    return 1;
  }
  if (!index_path.empty() && param_paths.size() > 1) {
    std::printf("--index requires a single --params checkpoint\n");
    return 1;
  }
  if (lifecycle && param_paths.size() > 1) {
    std::printf("--lifecycle requires a single --params checkpoint\n");
    return 1;
  }
  if (lifecycle && lifecycle_dir.empty()) {
    std::printf("--lifecycle requires --lifecycle_dir\n");
    return 1;
  }
  if (threads > 0) runtime::SetNumThreads(static_cast<int>(threads));

  std::vector<std::shared_ptr<const serve::ImputationEngine>> engines;
  for (const std::string& path : param_paths) {
    Result<std::shared_ptr<const serve::ImputationEngine>> engine =
        index_path.empty()
            ? serve::ImputationEngine::Load(path)
            : serve::ImputationEngine::Load(
                  path, index_path,
                  serve::RetrievalOptions{static_cast<size_t>(retrieval_k),
                                          16, retrieval_blend});
    if (!engine.ok()) {
      std::printf("load %s: %s\n", path.c_str(),
                  engine.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s: %s generator, %zu columns%s\n", path.c_str(),
                (*engine)->model().c_str(), (*engine)->num_cols(),
                (*engine)->has_index() ? ", retrieval on" : "");
    engines.push_back(std::move(*engine));
  }

  serve::ServerOptions opts;
  opts.host = host;
  opts.port = static_cast<int>(port);
  opts.queue.max_batch_rows = static_cast<size_t>(max_batch_rows);
  opts.queue.max_queue_rows = static_cast<size_t>(max_queue_rows);
  opts.queue.max_wait_ms = max_wait_ms;
  opts.queue.request_timeout_ms = request_timeout_ms;

  // Continuous learning: the manager is built before the server (its tap
  // must be in ServerOptions), but publishes *into* the server — the holder
  // closes the cycle once the server exists.
  auto server_holder = std::make_shared<serve::ImputationServer*>(nullptr);
  std::unique_ptr<lifecycle::LifecycleManager> manager;
  if (lifecycle) {
    Result<Checkpoint> ckpt = LoadCheckpoint(param_paths[0]);
    if (!ckpt.ok()) {
      std::printf("lifecycle checkpoint %s: %s\n", param_paths[0].c_str(),
                  ckpt.status().ToString().c_str());
      return 1;
    }
    lifecycle::LifecycleOptions lopts;
    lopts.dir = lifecycle_dir;
    lopts.drift.check_interval_ms = lifecycle_interval_ms;
    lopts.drift.min_rows = static_cast<size_t>(lifecycle_min_rows);
    lopts.drift.initial_trained_rows = static_cast<size_t>(lifecycle_n0);
    lopts.drift.retrain_cap_rows = static_cast<size_t>(lifecycle_retrain_cap);
    lopts.drift.sse.epsilon = lifecycle_epsilon;
    lopts.drift.sse.alpha = lifecycle_alpha;
    lopts.drift.sse.eta_scale = lifecycle_eta_scale;
    lopts.drift.retrain.epochs = static_cast<int>(lifecycle_retrain_epochs);
    Result<std::unique_ptr<lifecycle::LifecycleManager>> mgr =
        lifecycle::LifecycleManager::Create(
            *ckpt,
            [server_holder](
                std::shared_ptr<const serve::ImputationEngine> next) {
              if (*server_holder == nullptr) {
                return Status::Unavailable("server not started");
              }
              return (*server_holder)->HotSwap(std::move(next));
            },
            lopts);
    if (!mgr.ok()) {
      std::printf("lifecycle: %s\n", mgr.status().ToString().c_str());
      return 1;
    }
    manager = std::move(*mgr);
    opts.sample_hook = manager->SampleHook();
    std::printf("lifecycle on: %s (%zu rows stored, interval %.0f ms)\n",
                lifecycle_dir.c_str(), manager->store().num_rows(),
                lifecycle_interval_ms);
  }

  serve::ImputationServer server(std::move(engines), opts);
  *server_holder = &server;
  if (Status st = server.Start(); !st.ok()) {
    std::printf("start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving %zu model%s on %s:%d\n", param_paths.size(),
              param_paths.size() == 1 ? "" : "s", host.c_str(), server.port());
  if (!port_file.empty()) {
    FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }

  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGHUP, HandleReload);
  if (manager) manager->Start();

  Stopwatch watch;
  // Poll between waits so a SIGHUP can hot-swap re-loaded checkpoints
  // without stopping the event loop.
  while (!server.WaitFor(200.0)) {
    if (!g_reload.exchange(false)) continue;
    for (const std::string& path : param_paths) {
      // Same load-and-validate rules as the lifecycle publisher
      // (serve/checkpoint_loader), so the two swap paths cannot diverge.
      Result<std::shared_ptr<const serve::ImputationEngine>> engine =
          serve::LoadAndValidateCheckpoint(path);
      const Status st =
          engine.ok() ? server.HotSwap(std::move(*engine)) : engine.status();
      std::printf("reload %s: %s\n", path.c_str(),
                  st.ok() ? "swapped" : st.ToString().c_str());
    }
  }
  if (manager) manager->Stop();
  server.Shutdown();
  g_server = nullptr;
  *server_holder = nullptr;

  if (!report_out.empty()) {
    obs::RunReport report("scis_serve");
    report.AddConfig("params", params);
    report.AddConfig("max_batch_rows", static_cast<int64_t>(max_batch_rows));
    report.AddConfig("max_queue_rows", static_cast<int64_t>(max_queue_rows));
    report.AddConfig("max_wait_ms", max_wait_ms);
    report.AddConfig("request_timeout_ms", request_timeout_ms);
    report.AddConfig("threads", static_cast<int64_t>(threads));
    if (lifecycle) {
      report.AddConfig("lifecycle_dir", lifecycle_dir);
      report.AddConfig("lifecycle_epsilon", lifecycle_epsilon);
      report.AddConfig("lifecycle_alpha", lifecycle_alpha);
      report.AddConfig("lifecycle_interval_ms", lifecycle_interval_ms);
    }
    report.AddPhase("serving", watch.ElapsedSeconds());
    if (Status st = report.Write(report_out); !st.ok()) {
      std::printf("report %s: %s\n", report_out.c_str(),
                  st.ToString().c_str());
    }
  }
  return 0;
}
