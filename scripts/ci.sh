#!/usr/bin/env bash
# Pre-merge gate and nightly driver (see TESTING.md).
#
#   scripts/ci.sh            # tier-1 gate: build default preset, ctest -L tier1
#   scripts/ci.sh nightly    # long fuzz at high iteration counts, plain and
#                            # under the tsan and asan presets
#
# Requires cmake >= 3.21 (presets). Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-tier1}"
JOBS="${JOBS:-$(nproc)}"

case "$MODE" in
  tier1)
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$JOBS"
    ctest --preset tier1 -j "$JOBS"

    # Serving loopback smoke test: train a tiny model, save its checkpoint,
    # serve it (mmap-ed, checksums verified) over TCP, impute through
    # scis_client, and require the served CSV to be byte-identical to the
    # offline scis_impute output.
    SMOKE="$(mktemp -d)"
    trap 'rm -rf "$SMOKE"' EXIT
    ./build/examples/scis_datagen --dataset Trial --scale 0.005 \
      --output "$SMOKE/tiny.csv" >/dev/null
    ./build/examples/scis_impute --input "$SMOKE/tiny.csv" \
      --output "$SMOKE/offline.csv" --method SCIS-GAIN --epochs 2 --n0 32 \
      --seed 3 --save_params "$SMOKE/model.bin" >/dev/null
    ./build/examples/scis_serve --params "$SMOKE/model.bin" \
      --port 0 --port_file "$SMOKE/serve.port" &
    SERVE_PID=$!
    for _ in $(seq 50); do
      [ -s "$SMOKE/serve.port" ] && break
      sleep 0.1
    done
    ./build/examples/scis_client --port_file "$SMOKE/serve.port" --ping \
      --input "$SMOKE/tiny.csv" --output "$SMOKE/served.csv" \
      --rows_per_request 3 >/dev/null
    ./build/examples/scis_client --port_file "$SMOKE/serve.port" \
      --shutdown >/dev/null
    wait "$SERVE_PID"
    cmp "$SMOKE/offline.csv" "$SMOKE/served.csv"
    echo "serve loopback smoke: OK (mmap ckpt, served == offline)"

    # Perf smoke: the kernel bench sweep must run to completion and emit a
    # parseable json (quick mode — small sizes, short timing windows; the
    # committed baseline in bench/BENCH_kernels.json is full mode).
    ./build/bench/micro_kernels --bench-json="$SMOKE/bench.json" --quick \
      >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-kernels-v1' and d['kernels'], d" \
      "$SMOKE/bench.json"
    echo "kernel bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['kernels']))" "$SMOKE/bench.json") kernels)"

    # Index perf smoke: the ANN build/query sweep must complete, stay
    # bit-identical across 1/2/4 threads, and emit a parseable json (quick
    # mode; the committed full-mode baseline is bench/BENCH_index.json).
    ./build/bench/index_build_query --quick --queries 200 \
      --bench-json="$SMOKE/bench_index.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-index-v1' and d['sweep'], d; \
assert all(p['bit_identical_1_2_4_threads'] for p in d['sweep']), d" \
      "$SMOKE/bench_index.json"
    echo "index bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['sweep']))" "$SMOKE/bench_index.json") sweep points)"

    # Sinkhorn scaling smoke: the dense-vs-low-rank sweep must complete,
    # the low-rank arm must stay bit-identical across 1/2/4 threads, and
    # both solvers must agree on the objective within the 1e-2 relative
    # budget at every sweep point (quick mode; the committed full-mode
    # baseline with the 20k-row >=5x speedup is bench/BENCH_sinkhorn.json).
    ./build/bench/sinkhorn_scale --quick \
      --bench-json="$SMOKE/bench_sinkhorn.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-sinkhorn-v1' and d['sweep'], d; \
assert all(p['bit_identical_1_2_4_threads'] for p in d['sweep']), d; \
assert all(p['rel_gap'] <= 1e-2 for p in d['sweep']), d" \
      "$SMOKE/bench_sinkhorn.json"
    echo "sinkhorn bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['sweep']))" "$SMOKE/bench_sinkhorn.json") sweep points, dense/low-rank agree)"

    # Committed Sinkhorn baseline sanity: the checked-in full-mode sweep
    # must parse and hold the acceptance bar (>=5x single-thread speedup at
    # the largest n, objective gap <= 1e-2 everywhere, bit-identical).
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-sinkhorn-v1' and d['mode']=='full', d; \
assert all(p['bit_identical_1_2_4_threads'] for p in d['sweep']), d; \
assert all(p['rel_gap'] <= 1e-2 for p in d['sweep']), d; \
big=max(d['sweep'], key=lambda p: p['n']); \
assert big['n'] >= 20000 and big['speedup_single_thread'] >= 5.0, big" \
      bench/BENCH_sinkhorn.json
    echo "sinkhorn baseline: OK (bench/BENCH_sinkhorn.json holds the 5x/1e-2 bar)"

    # Train fast-path smoke: both arms of the training-step bench must run,
    # the fast path must train to bit-identical weights (vs the vendored
    # pre-fast-path engine, and across 1/2/4 threads), with zero steady-state
    # tape-pool misses (quick mode; the committed full-mode baseline is
    # bench/BENCH_train.json).
    ./build/bench/train_throughput --quick \
      --bench-json="$SMOKE/bench_train.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-train-v1' and d['configs'], d; \
assert all(c['weights_match_baseline'] for c in d['configs']), d; \
assert all(c['bit_identical_1_2_4_threads'] for c in d['configs']), d; \
assert all(c['pool_misses_after_warmup'] == 0 for c in d['configs']), d" \
      "$SMOKE/bench_train.json"
    echo "train bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['configs']))" "$SMOKE/bench_train.json") configs, weights bit-match old engine)"

    # Committed train baseline sanity: the checked-in full-mode run must
    # parse and hold the acceptance bar (>=2x single-thread step throughput
    # on every config, zero pool misses, bitwise-equal weights).
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-train-v1' and d['mode']=='full', d; \
assert all(c['speedup_single_thread'] >= 2.0 for c in d['configs']), d; \
assert all(c['weights_match_baseline'] for c in d['configs']), d; \
assert all(c['bit_identical_1_2_4_threads'] for c in d['configs']), d; \
assert all(c['pool_misses_after_warmup'] == 0 for c in d['configs']), d" \
      bench/BENCH_train.json
    echo "train baseline: OK (bench/BENCH_train.json holds the 2x bar on every config)"

    # OT glue smoke: the fused masked cost + gradient bench must run at 1 and
    # nproc threads and the fused training step must stay bitwise equal to
    # the pre-GEMM reference in every config (quick mode; the committed
    # full-mode baseline is bench/BENCH_ot.json).
    ./build/bench/ot_glue --quick --bench-json="$SMOKE/bench_ot.json" \
      >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-ot-v1' and d['configs'] and d['nproc'] >= 1, d; \
assert all(c['bit_identical'] for c in d['configs']), d" \
      "$SMOKE/bench_ot.json"
    echo "ot glue bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['configs']))" "$SMOKE/bench_ot.json") configs, fused == reference)"

    # Committed OT glue baseline sanity: the checked-in full-mode run must
    # parse and hold the acceptance bar (fused masked cost + gradient >= 3x
    # the pre-GEMM glue at d = 64 on 1 thread, bit-identical everywhere).
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-ot-v1' and d['mode']=='full', d; \
assert all(c['bit_identical'] for c in d['configs']), d; \
c=[c for c in d['configs'] if c['d']==64 and c['threads']==1][0]; \
assert c['glue_speedup'] >= 3.0, c" \
      bench/BENCH_ot.json
    echo "ot glue baseline: OK (bench/BENCH_ot.json holds the 3x bar at d = 64)"

    # Serve perf smoke: the TCP connections sweep must complete, every cell
    # must be bit-identical to the offline engine, and the json must parse
    # with nproc and one point per connection count (quick mode: {1, 8};
    # the committed full-mode baseline is bench/BENCH_serve.json).
    ./build/bench/serve_latency --quick \
      --bench-json="$SMOKE/bench_serve.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-serve-v1' and d['nproc'] >= 1, d; \
assert [p['connections'] for p in d['sweep']] == [1, 8], d; \
assert all(p['bit_identical'] for p in d['sweep']), d" \
      "$SMOKE/bench_serve.json"
    echo "serve bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['sweep']))" "$SMOKE/bench_serve.json") sweep points, all bit-identical)"

    # Continuous-learning loop smoke: the scis_lifecycle demo runs the full
    # feed -> SSE drift check -> retrain-at-n* -> hot-swap loop against a
    # live server at 1/2/4 worker threads and exits non-zero unless
    # every run is bit-identical with zero dropped or failed requests.
    ./build/examples/scis_lifecycle --workdir "$SMOKE/lifecycle" \
      --report-out "$SMOKE/lifecycle_report.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
cfg=d['config']; \
assert cfg['bit_identical_1_2_4_threads'] is True, cfg; \
assert cfg['generation'] == 1 and cfg['n_star'] > 0, cfg" \
      "$SMOKE/lifecycle_report.json"
    echo "lifecycle loop smoke: OK (drift -> retrain -> swap, bit-identical at 1/2/4 threads)"

    # Lifecycle perf smoke: the store/controller sweep must complete with a
    # published generation at every point and emit a parseable json (quick
    # mode; the committed full-mode baseline is bench/BENCH_lifecycle.json).
    ./build/bench/lifecycle_loop --quick \
      --bench-json="$SMOKE/bench_lifecycle.json" >/dev/null
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-lifecycle-v1' and d['sweep'], d; \
assert all(p['swapped'] and p['n_star'] > 0 for p in d['sweep']), d" \
      "$SMOKE/bench_lifecycle.json"
    echo "lifecycle bench smoke: OK ($(python3 -c "import json,sys; \
print(len(json.load(open(sys.argv[1]))['sweep']))" "$SMOKE/bench_lifecycle.json") sweep points, all swapped)"

    # Committed lifecycle baseline sanity: the checked-in full-mode sweep
    # must parse and show the loop completing (swap published) everywhere.
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert d['schema']=='scis-bench-lifecycle-v1' and d['mode']=='full', d; \
assert all(p['swapped'] and p['n_star'] > 0 for p in d['sweep']), d" \
      bench/BENCH_lifecycle.json
    echo "lifecycle baseline: OK (bench/BENCH_lifecycle.json, all points swapped)"
    ;;
  nightly)
    # High iteration counts: the nightly executable scales its property
    # loops with SCIS_NIGHTLY_ITERS (default 200 keeps plain `ctest` fast).
    export SCIS_NIGHTLY_ITERS="${SCIS_NIGHTLY_ITERS:-2000}"
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$JOBS"
    ctest --preset nightly -j "$JOBS"
    for SAN in tsan asan; do
      cmake --preset "$SAN" >/dev/null
      cmake --build --preset "$SAN" -j "$JOBS"
      ctest --preset "nightly-$SAN" -j "$JOBS"
    done
    ;;
  *)
    echo "usage: scripts/ci.sh [tier1|nightly]" >&2
    exit 2
    ;;
esac
