#!/usr/bin/env bash
# Builds the Release benchmarks and records the all-facts Shapley benchmark
# as BENCH_shapley.json, the incremental patch-vs-rebuild benchmark as
# BENCH_incremental.json, the serving-layer warm-vs-cold benchmark as
# BENCH_server.json, the arithmetic-backbone microbenchmarks as
# BENCH_arith.json, the durability-layer replay/compaction/fsync
# benchmark as BENCH_recovery.json, the concurrent socket-serving load
# benchmark as BENCH_service_load.json, and the sampling-tier accuracy +
# gap-property benchmarks (merged) as BENCH_approx.json at the repository
# root, so the perf trajectory is tracked PR over PR. BENCH_arith.json carries seed-implementation rows
# (BM_RefBigInt*) next to the production rows, which is what lets
# tools/check_arith_speedup.py gate the speedup within one run.
# BENCH_shapley.json carries a thread-count axis:
# BM_EngineAllFactsParallel/{students},{threads} rows measure the worker-pool
# engine, with threads=1 as the serial baseline of the speedup curve.
#
# All files embed git_sha and host_nproc in the JSON "context" block, so
# the single-core-container caveat (a parallel speedup is only physically
# possible when host_nproc > 1) is machine-readable instead of a prose note.
#
# Every benchmark binary is checked for existence up front and every JSON is
# written to a temp file and moved into place only after the run succeeds:
# a missing binary or a crashed benchmark fails the script loudly instead of
# leaving a partial BENCH_*.json behind.
#
# Checked-in recordings are protected against CPU downgrades: once a
# BENCH_*.json was recorded on a multi-core host (the bench-multicore CI
# job), re-recording it on a host with fewer CPUs refuses to overwrite the
# file — a single-core container run must not silently clobber the only
# recording on which the parallel speedup claims are physically meaningful.
# Pass --allow-downgrade to override deliberately.
#
#   tools/run_benchmarks.sh [--allow-downgrade] [build-dir]
#
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
allow_downgrade=0
positional=()
for arg in "$@"; do
  case "$arg" in
    --allow-downgrade) allow_downgrade=1 ;;
    *) positional+=("$arg") ;;
  esac
done
build_dir="${positional[0]:-$repo_root/build-bench}"

git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
host_nproc="$(nproc)"

bench_targets=(bench_shapley_all bench_incremental bench_server bench_arith
               bench_recovery bench_service_load bench_additive_fpras
               bench_gap_property)

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
      -DSHAPCQ_BUILD_TESTS=OFF -DSHAPCQ_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$host_nproc" --target "${bench_targets[@]}"

for target in "${bench_targets[@]}"; do
  if [[ ! -x "$build_dir/bench/$target" ]]; then
    echo "error: benchmark binary $build_dir/bench/$target is missing" >&2
    echo "       (build failed or was skipped; refusing to emit partial" \
         "BENCH_*.json)" >&2
    exit 1
  fi
done

# Refuses to replace an existing recording with one from a host with fewer
# CPUs (per the num_cpus/host_nproc context of both files) unless
# --allow-downgrade was passed. Exits 0 when the overwrite is fine.
guard_cpu_downgrade() {
  local out="$1" tmp="$2"
  [[ -f "$out" && "$allow_downgrade" != 1 ]] || return 0
  if ! python3 - "$out" "$tmp" <<'EOF'
import json, sys

def cpus(path):
    try:
        ctx = json.load(open(path)).get("context", {})
    except (OSError, ValueError):
        return None
    try:
        return int(ctx.get("num_cpus", ctx.get("host_nproc")))
    except (TypeError, ValueError):
        return None

old, new = cpus(sys.argv[1]), cpus(sys.argv[2])
if old is not None and new is not None and new < old:
    print(f"refusing to overwrite {sys.argv[1]}: existing recording is from "
          f"a {old}-CPU host, this run has {new} CPUs", file=sys.stderr)
    sys.exit(1)
EOF
  then
    echo "error: pass --allow-downgrade to deliberately re-record" \
         "$out on a smaller host" >&2
    return 1
  fi
}

# Runs one benchmark binary and atomically publishes its JSON: the output
# lands in BENCH_*.json only if the benchmark exits zero and the JSON is
# well-formed.
record() {
  local target="$1" out="$2"
  local tmp="$out.tmp"
  "$build_dir/bench/$target" \
      --benchmark_context=git_sha="$git_sha" \
      --benchmark_context=host_nproc="$host_nproc" \
      --benchmark_format=json \
      --benchmark_out="$tmp" \
      --benchmark_out_format=json
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmp"
  guard_cpu_downgrade "$out" "$tmp"
  mv "$tmp" "$out"
}

record bench_shapley_all "$repo_root/BENCH_shapley.json"
record bench_incremental "$repo_root/BENCH_incremental.json"
record bench_server "$repo_root/BENCH_server.json"
record bench_arith "$repo_root/BENCH_arith.json"
record bench_recovery "$repo_root/BENCH_recovery.json"
record bench_service_load "$repo_root/BENCH_service_load.json"

# The sampling tier publishes ONE file: the accuracy rows (additive FPRAS
# vs ground truth) and the gap-property rows (why only ADDITIVE guarantees
# exist under negation) belong to the same claim, so they are merged into
# BENCH_approx.json before the accuracy gate runs on it.
approx_tmp="$(mktemp)" gap_tmp="$(mktemp)"
record_to() {
  local target="$1" out="$2"
  "$build_dir/bench/$target" \
      --benchmark_context=git_sha="$git_sha" \
      --benchmark_context=host_nproc="$host_nproc" \
      --benchmark_format=json \
      --benchmark_out="$out" \
      --benchmark_out_format=json
}
record_to bench_additive_fpras "$approx_tmp"
record_to bench_gap_property "$gap_tmp"
approx_merged="$repo_root/BENCH_approx.json.tmp"
python3 - "$approx_tmp" "$gap_tmp" "$approx_merged" <<'EOF'
import json, sys
merged = json.load(open(sys.argv[1]))
gap = json.load(open(sys.argv[2]))
merged["benchmarks"].extend(gap["benchmarks"])
with open(sys.argv[3], "w") as out:
    json.dump(merged, out, indent=2)
EOF
rm -f "$approx_tmp" "$gap_tmp"
guard_cpu_downgrade "$repo_root/BENCH_approx.json" "$approx_merged"
mv "$approx_merged" "$repo_root/BENCH_approx.json"

"$repo_root/tools/check_engine_speedup.py" \
    "$repo_root/BENCH_shapley.json"
"$repo_root/tools/check_incremental_speedup.py" \
    "$repo_root/BENCH_incremental.json"
"$repo_root/tools/check_server_speedup.py" \
    "$repo_root/BENCH_server.json"
"$repo_root/tools/check_arith_speedup.py" \
    "$repo_root/BENCH_arith.json"
"$repo_root/tools/check_service_load.py" \
    "$repo_root/BENCH_service_load.json"
"$repo_root/tools/check_approx_accuracy.py" \
    "$repo_root/BENCH_approx.json"

echo "wrote $repo_root/BENCH_shapley.json, $repo_root/BENCH_incremental.json," \
     "$repo_root/BENCH_server.json, $repo_root/BENCH_arith.json," \
     "$repo_root/BENCH_recovery.json, $repo_root/BENCH_service_load.json" \
     "and $repo_root/BENCH_approx.json"
