// serve_latency — latency/throughput bench for src/serve, batching layer
// and full TCP serving path.
//
//   serve_latency [--rows 2000] [--cols 9] [--max_wait_ms 2] [--threads 0]
//                 [--quick] [--bench-json bench/BENCH_serve.json]
//                 [--trace-out t.json] [--report-out r.json]
//
// Part 1 drives a BatchQueue directly (no sockets) with concurrent
// single-row clients at max_batch_rows 1, 8, and 64: the
// latency-vs-throughput trade-off the micro-batching knob controls.
//
// Part 2 measures the whole event-driven path — TCP loopback clients
// against the epoll server — sweeping connections {1, 8, 64} ({1, 8} with
// --quick) and reporting p50/p99 request latency and rows/s per cell.
// Every response is bit-checked against the offline engine, so the sweep
// doubles as a serving-correctness run. --bench-json writes the
// machine-readable sweep with the machine's nproc; the committed baseline
// is bench/BENCH_serve.json (full mode, see EXPERIMENTS.md).
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <limits>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "serve/batch_queue.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "tensor/rng.h"

using namespace scis;

namespace {

// A GAIN-shaped checkpoint with random weights; latency does not care that
// the model is untrained.
Checkpoint MakeCheckpoint(size_t d, uint64_t seed) {
  Rng rng(seed);
  Checkpoint ckpt;
  ckpt.meta.model = "GAIN";
  for (size_t j = 0; j < d; ++j) {
    ckpt.meta.columns.push_back({"c" + std::to_string(j), 0, 0});
    ckpt.meta.norm_lo.push_back(0.0);
    ckpt.meta.norm_hi.push_back(1.0);
  }
  ckpt.params.push_back({"g.l0.W", rng.NormalMatrix(2 * d, d, 0.0, 0.5)});
  ckpt.params.push_back({"g.l0.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  ckpt.params.push_back({"g.l1.W", rng.NormalMatrix(d, d, 0.0, 0.5)});
  ckpt.params.push_back({"g.l1.b", rng.NormalMatrix(1, d, 0.0, 0.1)});
  return ckpt;
}

double Percentile(std::vector<double> ms, double p) {
  std::sort(ms.begin(), ms.end());
  const size_t at = static_cast<size_t>(p * static_cast<double>(ms.size() - 1));
  return ms[at];
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a.data()[i]) !=
        std::bit_cast<uint64_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

struct SweepPoint {
  size_t connections = 0;
  size_t requests = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rows_per_s = 0.0;
  bool bit_identical = true;
};

// One sweep cell: `connections` client threads (one TCP connection each)
// pull single-row requests from a shared counter against the server,
// timing each round trip and bit-checking each response.
SweepPoint RunServePoint(
    const std::shared_ptr<const serve::ImputationEngine>& engine,
    const std::vector<Matrix>& requests, const std::vector<Matrix>& expected,
    size_t connections, double max_wait_ms) {
  SweepPoint pt;
  pt.connections = connections;
  pt.requests = requests.size();

  serve::ServerOptions opts;
  opts.queue.max_wait_ms = max_wait_ms;
  opts.queue.max_queue_rows = 1u << 16;
  serve::ImputationServer server(engine, opts);
  SCIS_CHECK_MSG(server.Start().ok(), "server start failed");

  std::vector<double> latency_ms(requests.size(), 0.0);
  std::atomic<size_t> next{0};
  std::atomic<bool> identical{true};
  Stopwatch watch;
  std::vector<std::thread> pool;
  for (size_t c = 0; c < connections; ++c) {
    pool.emplace_back([&] {
      Result<std::unique_ptr<serve::ImputationClient>> client =
          serve::ImputationClient::Connect("127.0.0.1", server.port());
      SCIS_CHECK_MSG(client.ok(), "client connect failed");
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        Stopwatch req_watch;
        Result<Matrix> out = (*client)->Impute(requests[i]);
        SCIS_CHECK_MSG(out.ok(), "request failed");
        latency_ms[i] = req_watch.ElapsedSeconds() * 1e3;
        if (!BitIdentical(out.value(), expected[i])) identical.store(false);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double seconds = watch.ElapsedSeconds();
  server.Shutdown();

  pt.p50_ms = Percentile(latency_ms, 0.50);
  pt.p99_ms = Percentile(latency_ms, 0.99);
  pt.rows_per_s = static_cast<double>(requests.size()) / seconds;
  pt.bit_identical = identical.load();
  return pt;
}

int WriteBenchJson(const std::string& path, const std::vector<SweepPoint>& pts,
                   bool quick, int nproc, size_t d, double max_wait_ms) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::printf("bench-json: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"scis-bench-serve-v1\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(out, "  \"nproc\": %d,\n", nproc);
  std::fprintf(out, "  \"cols\": %zu,\n", d);
  std::fprintf(out, "  \"max_wait_ms\": %.3f,\n", max_wait_ms);
  std::fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < pts.size(); ++i) {
    const SweepPoint& p = pts[i];
    std::fprintf(out,
                 "    {\"connections\": %zu, \"requests\": %zu, "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"rows_per_s\": %.0f, \"bit_identical\": %s}%s\n",
                 p.connections, p.requests, p.p50_ms, p.p99_ms,
                 p.rows_per_s, p.bit_identical ? "true" : "false",
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
  long long rows = 2000, cols = 9, clients = 8, threads = 0;
  double max_wait_ms = 2.0;
  bool quick = false;
  std::string bench_json;
  FlagParser flags;
  flags.AddInt("rows", &rows, "single-row requests per sweep point");
  flags.AddInt("cols", &cols, "model width (columns)");
  flags.AddInt("clients", &clients, "client threads for the batching sweep");
  flags.AddDouble("max_wait_ms", &max_wait_ms, "micro-batch flush deadline");
  flags.AddBool("quick", &quick, "small sweep for CI smoke runs");
  flags.AddString("bench-json", &bench_json,
                  "write the machine-readable serving sweep to this path");
  bench::AddThreadsFlag(flags, &threads);
  bench::ObsSession obs("serve_latency");
  obs.AddFlags(flags);
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::printf("%s\n", st.ToString().c_str());
    return st.code() == StatusCode::kOutOfRange ? 0 : 1;
  }
  bench::ApplyThreadsFlag(threads);
  obs.Start();
  if (quick && rows == 2000) rows = 400;
  obs.report().AddConfig("rows", static_cast<int64_t>(rows));
  obs.report().AddConfig("cols", static_cast<int64_t>(cols));
  obs.report().AddConfig("clients", static_cast<int64_t>(clients));
  obs.report().AddConfig("max_wait_ms", max_wait_ms);
  obs.report().AddConfig("threads", static_cast<int64_t>(threads));
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  obs.report().AddConfig("nproc", static_cast<int64_t>(nproc));

  const size_t d = static_cast<size_t>(cols);
  Result<std::shared_ptr<const serve::ImputationEngine>> engine =
      serve::ImputationEngine::FromCheckpoint(MakeCheckpoint(d, 17));
  SCIS_CHECK_MSG(engine.ok(), "engine build failed");

  // One pre-generated request per row so the clients measure serving only;
  // expected bits come from the offline engine, the serving ground truth.
  Rng rng(23);
  std::vector<Matrix> requests;
  std::vector<Matrix> expected;
  for (long long i = 0; i < rows; ++i) {
    Matrix r(1, d);
    for (size_t j = 0; j < d; ++j) {
      r(0, j) = rng.Bernoulli(0.3)
                    ? std::numeric_limits<double>::quiet_NaN()
                    : rng.Uniform();
    }
    expected.push_back((*engine)->ImputeBatch(r).value());
    requests.push_back(std::move(r));
  }

  // Part 1: batching layer only (no sockets).
  std::printf("serve_latency: %lld single-row requests, %lld clients, "
              "d=%zu, max_wait=%.2gms\n\n",
              rows, clients, d, max_wait_ms);
  std::printf("%-16s %12s %12s %12s\n", "max_batch_rows", "p50 ms", "p99 ms",
              "rows/s");
  for (size_t batch_rows : {1u, 8u, 64u}) {
    serve::BatchQueueOptions qopts;
    qopts.max_batch_rows = batch_rows;
    qopts.max_wait_ms = max_wait_ms;
    qopts.max_queue_rows = 1u << 16;
    serve::BatchQueue queue(*engine, qopts);

    std::vector<double> latency_ms(static_cast<size_t>(rows), 0.0);
    std::atomic<size_t> next{0};
    Stopwatch watch;
    std::vector<std::thread> pool;
    for (long long c = 0; c < clients; ++c) {
      pool.emplace_back([&] {
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= requests.size()) return;
          Stopwatch req_watch;
          Result<Matrix> out = queue.Impute(requests[i]);
          SCIS_CHECK_MSG(out.ok(), "request failed");
          latency_ms[i] = req_watch.ElapsedSeconds() * 1e3;
        }
      });
    }
    for (std::thread& t : pool) t.join();
    const double seconds = watch.ElapsedSeconds();
    queue.Shutdown();

    const double p50 = Percentile(latency_ms, 0.50);
    const double p99 = Percentile(latency_ms, 0.99);
    const double rate = static_cast<double>(rows) / seconds;
    std::printf("%-16zu %12.3f %12.3f %12.0f\n", batch_rows, p50, p99, rate);
    const std::string section = "batch_" + std::to_string(batch_rows);
    obs.report().AddSectionValue(section, "p50_ms", p50);
    obs.report().AddSectionValue(section, "p99_ms", p99);
    obs.report().AddSectionValue(section, "rows_per_s", rate);
    obs.report().AddPhase(section, seconds);
  }

  // Part 2: the full TCP path — connections sweep.
  const std::vector<size_t> conn_sweep =
      quick ? std::vector<size_t>{1, 8} : std::vector<size_t>{1, 8, 64};
  std::vector<SweepPoint> points;
  std::printf("\n%-12s %12s %12s %12s %8s\n", "connections", "p50 ms",
              "p99 ms", "rows/s", "ident");
  for (const size_t connections : conn_sweep) {
    const SweepPoint pt = RunServePoint(*engine, requests, expected,
                                        connections, max_wait_ms);
    std::printf("%-12zu %12.3f %12.3f %12.0f %8s\n", pt.connections,
                pt.p50_ms, pt.p99_ms, pt.rows_per_s,
                pt.bit_identical ? "yes" : "NO");
    const std::string section = "tcp_c" + std::to_string(connections);
    obs.report().AddSectionValue(section, "p50_ms", pt.p50_ms);
    obs.report().AddSectionValue(section, "p99_ms", pt.p99_ms);
    obs.report().AddSectionValue(section, "rows_per_s", pt.rows_per_s);
    obs.report().AddSectionValue(section, "bit_identical",
                                 pt.bit_identical ? 1.0 : 0.0);
    points.push_back(pt);
    if (!pt.bit_identical) {
      std::printf("BIT-IDENTITY VIOLATION at connections=%zu\n", connections);
    }
  }

  int rc = 0;
  for (const SweepPoint& pt : points) rc |= pt.bit_identical ? 0 : 1;
  if (!bench_json.empty()) {
    rc |= WriteBenchJson(bench_json, points, quick, nproc, d, max_wait_ms);
  }
  return obs.Finish() || rc;
}
