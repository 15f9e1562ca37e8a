#!/usr/bin/env python3
"""The SCIS benchmark: one workload per call, or a steadiness sweep.

    python3 scisbench/run.py --workload impute-tall --seed 1 --seconds 20 --trace 0
    python3 scisbench/run.py --workload train-wide --steady 10

Run from the root of a checkout. The first call builds scisbench (and the
repo libraries it links) into .bench_build/scisbench. Each workload runs in
its own process; this script prints one JSON object as its last line:
correct, attempted, failed and the metrics (end-to-end ones with --trace 0,
per-layer ones with --trace 1). --steady K runs the workload K times with
seeds seed..seed+K-1 and prints, for each end-to-end metric, the median, the
quartiles and the spread (interquartile range over median) against the bound
in BENCHMARK.json. See README.md.
"""
import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scisbench")
BINARY = os.path.join(BUILD, "scisbench")
WORKLOADS = ("impute-tall", "train-wide", "serve-drift")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rows_per_s": "1/s",
    "rmse": "rmse",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data.csv_read_s": "s",
    "data.csv_write_s": "s",
    "data.normalize_s": "s",
    "core.dim_initial_s": "s",
    "core.sse_s": "s",
    "core.dim_final_s": "s",
    "core.impute_s": "s",
    "dim.steps": "count",
    "dim.step_ms_p50": "ms",
    "sse.n_star": "rows",
    "sse.rt": "ratio",
    "sse.probes": "count",
    "sse.model_evals": "count",
    "ot.glue_self_s": "s",
    "ot.sinkhorn_self_s": "s",
    "ot.sinkhorn_solves": "count",
    "ot.sinkhorn_iters": "count",
    "ot.masked_cost_us": "us",
    "ot.masked_grad_us": "us",
    "ot.sinkhorn_us": "us",
    "dim.backward_self_s": "s",
    "dim.optimizer_self_s": "s",
    "autodiff.tape_pool_misses": "count",
    "runtime.parallel_regions": "count",
    "runtime.worker_chunks": "count",
    "runtime.inline_chunks": "count",
    "runtime.busy_s": "s",
    "runtime.run_s_1t": "s",
    "runtime.run_s_nproc": "s",
    "runtime.speedup": "ratio",
    "models.impute_rows_per_s": "1/s",
    "serve.engine_us_per_row_1": "us",
    "serve.engine_us_per_row_64": "us",
    "serve.batches": "count",
    "serve.rows_per_batch": "rows",
    "serve.batch_ms_p50": "ms",
    "serve.request_ms_p50": "ms",
    "serve.p50_ms_1conn": "ms",
    "serve.p50_ms_nconn": "ms",
    "serve.p99_ms_nconn": "ms",
    "serve.p50_ms_retrain": "ms",
    "serve.rows_per_s_1conn": "1/s",
    "lifecycle.check_s": "s",
    "lifecycle.drift_to_swap_s": "s",
    "lifecycle.sse_s": "s",
    "lifecycle.retrain_s": "s",
    "lifecycle.n_star": "rows",
    "lifecycle.confidence_quiet": "ratio",
    "lifecycle.confidence_drift": "ratio",
    "lifecycle.rmse_pre_swap": "rmse",
    "lifecycle.store_rows": "rows",
    "quality.mean_rmse": "rmse",
    "obs.trace_overhead": "ratio",
    "obs.traced_s": "s",
    "obs.untraced_s": "s",
    "obs.unattributed_s": "s",
    "obs.worker_self_s": "s",
    "obs.spans_dropped": "count",
}

# The span that wraps one traced job of each workload; span-folded layer
# metrics are per such job.
JOB_SPAN = {
    "impute-tall": "bench.scis_run",
    "train-wide": "bench.scis_run_1t",
    "serve-drift": "bench.run_check_drift",
}


def build():
    """Configures and builds scisbench; True when the binary is current."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(log, "w") as out:
        if not os.path.exists(os.path.join(BUILD, "build.ninja")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "--target", "scisbench", "-j", jobs],
            stdout=out, stderr=subprocess.STDOUT)
    return rc == 0 and os.path.exists(BINARY)


def fold_spans(path, workload):
    """Self time per span name on the benchmark's main thread, under the
    workload's job span, plus worker-thread and unattributed time."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    names = {e["tid"]: e["args"]["name"] for e in events if e.get("ph") == "M"}
    per_tid = collections.defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            per_tid[e["tid"]].append(e)

    job = JOB_SPAN[workload]
    self_under_job = collections.Counter()  # main thread, inside job spans
    total_under_job = collections.Counter()
    bench_self = 0.0
    worker_self = 0.0
    jobs = 0
    for tid, spans in per_tid.items():
        main = names.get(tid) == "bench.main"
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child_us, in_job]
        done = []

        def close(entry):
            ev, child, _ = entry
            done.append((ev, ev["dur"] - child, entry[2]))

        for ev in spans:
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= ev["ts"]:
                close(stack.pop())
            in_job = (bool(stack) and stack[-1][2]) or ev["name"] == job
            if stack:
                stack[-1][1] += ev["dur"]
            stack.append([ev, 0.0, in_job])
        while stack:
            close(stack.pop())
        for ev, self_us, in_job in done:
            s = self_us / 1e6
            if not main:
                worker_self += s
                continue
            if ev["name"] == job:
                jobs += 1
            if ev["name"].startswith("bench."):
                bench_self += s
            elif in_job:
                self_under_job[ev["name"]] += s
                total_under_job[ev["name"]] += ev["dur"] / 1e6
    jobs = max(jobs, 1)
    sinkhorn = sum(v for k, v in self_under_job.items()
                   if k.startswith("sinkhorn."))
    out = {
        "ot.glue_self_s": self_under_job["dim.forward"] / jobs,
        "ot.sinkhorn_self_s": sinkhorn / jobs,
        "dim.backward_self_s": self_under_job["dim.backward"] / jobs,
        "dim.optimizer_self_s": self_under_job["dim.optimizer"] / jobs,
        "obs.unattributed_s": bench_self / jobs,
        "obs.worker_self_s": worker_self / jobs,
    }
    if workload == "serve-drift":
        out["lifecycle.sse_s"] = total_under_job["sse.search"] / jobs
        out["lifecycle.retrain_s"] = total_under_job["dim.train"] / jobs
    return out


def run_once(workload, seed, seconds, trace):
    """Runs one workload process; returns its raw report or None."""
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d" % (workload, os.getpid()))
    trace_path = os.path.join(work, "trace.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work]
    if trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170,
                              universal_newlines=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write("scisbench exited with %d\n" % proc.returncode)
            return None
        raw = json.loads(lines[-1])
        if trace:
            raw["metrics"].update(fold_spans(trace_path, workload))
        return raw
    except subprocess.TimeoutExpired:
        sys.stderr.write("scisbench timed out\n")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result(raw, trace):
    table = PER_LAYER if trace else END_TO_END
    # Layers a workload does not exercise read 0 (README "Per-layer metrics").
    metrics = {name: {"value": raw["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in table.items()}
    for failure in raw.get("check_failures", []):
        sys.stderr.write("check failed: %s\n" % failure)
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def steady(workload, seed, seconds, runs):
    """Runs the workload `runs` times on consecutive seeds and prints the
    spread of each end-to-end metric against its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(f)["end_to_end"]}
    values = collections.defaultdict(list)
    shares = []
    for k in range(runs):
        raw = run_once(workload, seed + k, seconds, False)
        if raw is None or not raw["correct"]:
            sys.stderr.write("run with seed %d failed\n" % (seed + k))
            return 1
        shares.append(raw["failed"] / raw["attempted"])
        for name in END_TO_END:
            values[name].append(raw["metrics"][name])
        print("seed %d: %s" % (seed + k, " ".join(
            "%s=%.6g" % (n, raw["metrics"][n]) for n in END_TO_END)))
    report = {"workload": workload, "runs": runs,
              "failed_share": sorted(set(shares)), "metrics": {}}
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        report["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bounds.get(name),
            "within_third": spread < bounds.get(name, 0) / 3}
    print(json.dumps(report))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0,
                    help="steadiness mode: this many runs on seeds seed..")
    args = ap.parse_args()
    if not build():
        sys.stderr.write("build failed; see %s\n" %
                         os.path.join(BUILD, "build.log"))
        return 1
    if args.steady:
        return steady(args.workload, args.seed, args.seconds, args.steady)
    raw = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    if raw is None:
        return 1
    print(json.dumps(result(raw, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
