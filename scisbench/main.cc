// scisbench — one workload of the SCIS benchmark in this process.
//
//   scisbench --workload impute-tall|train-wide|serve-drift --seed N
//             --seconds S --work-dir DIR [--trace-out trace.json]
//
// Prints one JSON object on its last stdout line: correct, attempted,
// failed, check_failures and every metric the workload measured. With
// --trace-out, tracing is on for the traced rounds and the spans are
// written there for run.py to fold into per-layer metrics. run.py is the
// entry point; see README.md.
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "common/flags.h"
#include "obs/trace.h"

using namespace scis;

int main(int argc, char** argv) {
  scisbench::Args args;
  long long seed = 1;
  FlagParser flags;
  flags.AddString("workload", &args.workload,
                  "impute-tall, train-wide or serve-drift");
  flags.AddInt("seed", &seed, "input seed");
  flags.AddDouble("seconds", &args.seconds, "measured time per run");
  flags.AddString("work-dir", &args.work_dir, "scratch directory");
  flags.AddString("trace-out", &args.trace_path,
                  "trace the run and write its spans here");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  args.seed = static_cast<uint64_t>(seed);
  args.trace = !args.trace_path.empty();
  if (args.work_dir.empty()) {
    std::fprintf(stderr, "--work-dir is required\n");
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  obs::SetCurrentThreadName("bench.main");

  scisbench::Report report;
  int rc = 2;
  if (args.workload == "impute-tall") {
    rc = scisbench::RunImputeTall(args, &report);
  } else if (args.workload == "train-wide") {
    rc = scisbench::RunTrainWide(args, &report);
  } else if (args.workload == "serve-drift") {
    rc = scisbench::RunServeDrift(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  }
  if (rc != 0) return rc;
  if (args.trace) {
    if (Status st = obs::WriteTrace(args.trace_path); !st.ok()) {
      std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
      return 1;
    }
    report.Set("obs.spans_dropped",
               static_cast<double>(obs::TraceDroppedCount()));
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
