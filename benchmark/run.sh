#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--seed=N] [--seconds=S]
#       Runs every workload twice, untraced (end-to-end metrics) and
#       traced (per-layer metrics), each in its own process. Prints every
#       metric as "name value unit", writes build-bench/results.json and
#       exits non-zero if any correctness check fails, including a
#       final-model hash that differs between the two runs of a workload.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload. The last line of stdout is its JSON
#       result; the exit code is non-zero if a check failed.
#
# Builds into build-bench/ at the repository root; all build output goes
# to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
workloads=(train-uniform train-zipf-tiered train-eager serve-while-train)

workload=""
seed=1
seconds=25
trace=0
while [ $# -gt 0 ]; do
    key="$1"
    if [[ "$key" == *=* ]]; then
        value="${key#*=}"
        key="${key%%=*}"
        shift
    elif [ $# -ge 2 ]; then
        value="$2"
        shift 2
    else
        echo "run.sh: $key needs a value" >&2
        exit 2
    fi
    case "$key" in
        --workload) workload="$value" ;;
        --seed) seed="$value" ;;
        --seconds) seconds="$value" ;;
        --trace) trace="$value" ;;
        *) echo "run.sh: unknown flag $key" >&2; exit 2 ;;
    esac
done

jobs="$(nproc 2>/dev/null || echo 1)"
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

run_one() { # workload trace
    "$build/lazydp_benchmark" --workload "$1" --seed "$seed" \
        --seconds "$seconds" --trace "$2" --out "$build" \
        --validator "$build/lazydp_trace_validate"
}

if [ -n "$workload" ]; then
    run_one "$workload" "$trace"
    exit $?
fi

status=0
results="{\"seed\": $seed, \"seconds\": $seconds, \"workloads\": {"
sep=""
for w in "${workloads[@]}"; do
    hashes=()
    entry="\"$w\": {"
    for t in 0 1; do
        log="$build/run-$w-trace$t.log"
        if ! run_one "$w" "$t" >"$log"; then
            echo "run.sh: $w (trace $t) failed its checks" >&2
            status=1
        fi
        sed '$d' "$log"
        hashes+=("$(sed -n 's/^model_hash //p' "$log")")
        kind=$([ "$t" = 0 ] && echo end_to_end || echo per_layer)
        entry+="\"$kind\": $(tail -n 1 "$log"), "
    done
    if [ "${hashes[0]}" != "${hashes[1]}" ]; then
        echo "run.sh: $w final-model hash differs between the untraced" \
            "and traced runs (${hashes[0]} vs ${hashes[1]})" >&2
        status=1
    fi
    results+="$sep$entry\"model_hash\": \"${hashes[0]}\"}"
    sep=", "
done
echo "$results}}" >"$build/results.json"
echo "wrote $build/results.json"
exit $status
