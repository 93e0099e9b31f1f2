#!/usr/bin/env bash
# The performance ledger: wall time of every ssync-lab scenario and the
# benchmark's metrics, appended as rows to a committed TSV file.
#
# Runs every `ssync-lab` scenario in release at `--threads 1` and
# `--threads $(nproc)` (output discarded, wall time measured here), then
# each benchmark workload (rx, joint, city) at `--trace 0` (end-to-end
# metrics) and `--trace 1` (per-layer metrics). Every row is stamped with
# the benchmark's own `# meta` fields: git_rev, nproc, kernel_tier and
# features. Rows are appended, so a perf change regenerates the rows it
# moved next to the ones it is compared with.
#
# Columns: git_rev nproc kernel_tier features source name setting metric
# value unit. `source` is `scenario` (setting `threads=N`, metric
# `wall_s`) or `benchmark` (setting `trace=0|1`, `name` the workload).
#
# Usage: scripts/ledger.sh
# Every benchmark run is 30 s at seed 1, and rows go to LEDGER.tsv: the
# stamp records neither, so rows stay comparable only at these values.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=30
seed=1
out=LEDGER.tsv

cargo build --quiet --release -p ssync_bench --bin ssync-lab
cargo build --quiet --offline --release --manifest-path benchmark/Cargo.toml
lab=target/release/ssync-lab
bench=benchmark/target/release/ssync-perfbench
threads_all=$(nproc)

# The stamp of this build, from the meta line of a short benchmark run.
meta=$("$bench" --workload rx --seed "$seed" --seconds 1 --trace 0 | grep '^# meta ')
field() {
    grep -oE "\"$1\":(\"[^\"]*\"|\[[^]]*\]|[0-9]+)" <<<"$meta" | cut -d: -f2- | tr -d '"[]'
}
features=$(field features)
stamp=$(printf '%s\t%s\t%s\t%s' "$(field git_rev)" "$(field nproc)" "$(field kernel_tier)" "${features:--}")

if [[ ! -s "$out" ]]; then
    printf 'git_rev\tnproc\tkernel_tier\tfeatures\tsource\tname\tsetting\tmetric\tvalue\tunit\n' >"$out"
fi

scenarios=$("$lab" list | awk 'NR > 1 { print $1 }')
for name in $scenarios; do
    for threads in 1 "$threads_all"; do
        start=$(date +%s.%N)
        "$lab" run "$name" --threads "$threads" >/dev/null
        end=$(date +%s.%N)
        wall=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
        printf '%s\tscenario\t%s\tthreads=%s\twall_s\t%s\ts\n' "$stamp" "$name" "$threads" "$wall" >>"$out"
        echo "scenario $name threads=$threads ${wall} s" >&2
    done
done

for workload in rx joint city; do
    for trace in 0 1; do
        json=$("$bench" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
            grep '^{')
        # Each metric is `"name": {"value": v, "unit": "u"}`.
        grep -oE '"[A-Za-z0-9_.]+": \{"value": [^,]+, "unit": "[^"]*"\}' <<<"$json" |
            sed -E 's/^"([^"]+)": \{"value": ([^,]+), "unit": "([^"]*)"\}$/\1\t\2\t\3/' |
            while IFS=$'\t' read -r metric value unit; do
                printf '%s\tbenchmark\t%s\ttrace=%s\t%s\t%s\t%s\n' \
                    "$stamp" "$workload" "$trace" "$metric" "$value" "$unit" >>"$out"
            done
        echo "benchmark $workload trace=$trace done" >&2
    done
done
