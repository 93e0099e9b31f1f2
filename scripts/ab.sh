#!/usr/bin/env bash
# The A/B runner: the benchmark's end-to-end metrics of two revisions,
# measured in alternating pairs on one host, and the acceptance rule for
# a speed claim checked on them.
#
# Builds both revisions offline in git worktrees under target/ab/, then
# runs each workload for a fixed number of pairs. Every pair runs both
# sides once, at the same seed and at BENCHMARK.json's run_seconds, and
# the side that runs first swaps from one pair to the next, so slow drift
# of the host (thermal state, a neighbour's load) falls on both sides
# alike.
#
# Every run appends one row per metric to the runs file, with its pair
# index and whether it ran first. Once a workload's pairs are done, one
# summary row per metric goes to the summary file, computed from the
# pairs of this invocation only (never from rows an earlier invocation
# left in the runs file): both medians, the gain of the change's median
# over the base's (in the metric's better direction, from BENCHMARK.json),
# how many pairs the change won, the base's interquartile range, and two
# verdicts:
#   claim     `pass` when at least 10 pairs ran, the change wins at least
#             9 pairs in 10, its median gain exceeds the base's IQR, and
#             its failed units are no larger a share than the base's
#             (summed over the pairs); else `fail`;
#   bound_ok  `yes` when the change's median is not worse than the
#             base's by more than the metric's BENCHMARK.json bound.
# The failed-unit share (failed / attempted units) is summarised as the
# metric `failed_share`, better lower, bound 0.
#
# The worktrees are removed on exit, however the script ends; each
# worktree's benchmark/Cargo.lock, which the build may rewrite, is put
# back first, as scripts/ledger.sh does for the checkout it runs in.
#
# Usage: scripts/ab.sh [--pairs N] [--seed S]
#                      [--runs FILE] [--summary FILE]
#                      BASE CHANGE WORKLOAD...
# BASE and CHANGE are git revisions (the committed trees are measured,
# never the working tree). Defaults: 10 pairs, seed 1, rows to
# AB_RUNS.tsv and AB_SUMMARY.tsv. Example, a change against its parent
# on the rx workload:
#   scripts/ab.sh HEAD~1 HEAD rx
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10
seed=1
runs_out=AB_RUNS.tsv
summary_out=AB_SUMMARY.tsv
while [[ $# -gt 0 ]]; do
    case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --runs) runs_out=$2; shift 2 ;;
    --summary) summary_out=$2; shift 2 ;;
    -*) echo "unknown option $1" >&2; exit 2 ;;
    *) break ;;
    esac
done
if [[ $# -lt 3 ]]; then
    sed -n '/^# Usage:/,/^set -euo/p' "$0" | sed '$d' >&2
    exit 2
fi
base_rev=$(git rev-parse --short=12 "$1^{commit}")
change_rev=$(git rev-parse --short=12 "$2^{commit}")
shift 2
workloads=("$@")
# The run length the benchmark is judged at.
seconds=$(grep -oE '"run_seconds": [0-9]+' BENCHMARK.json | grep -oE '[0-9]+$')

root=target/ab
wt_base=$root/base-$base_rev
wt_change=$root/change-$change_rev
mkdir -p "$root"
# This invocation's rows, the only ones its summaries read.
rows=$(mktemp "$root/rows.XXXXXX")
cleanup() {
    for wt in "$wt_base" "$wt_change"; do
        if [[ -d $wt ]]; then
            git -C "$wt" checkout --quiet -- benchmark/Cargo.lock 2>/dev/null || true
            git worktree remove --force "$wt"
        fi
    done
    git worktree prune
    rm -f "$rows"
}
trap cleanup EXIT
for side in base change; do
    wt_var=wt_$side
    rev_var=${side}_rev
    wt=${!wt_var}
    [[ -d $wt ]] && git worktree remove --force "$wt"
    git worktree add --quiet --detach "$wt" "${!rev_var}"
    echo "building $side ($(git -C "$wt" log -1 --format='%h %s'))" >&2
    cargo build --quiet --offline --release --manifest-path "$wt/benchmark/Cargo.toml"
done
bench_base=$wt_base/benchmark/target/release/ssync-perfbench
bench_change=$wt_change/benchmark/target/release/ssync-perfbench
# The kernel tier, from the change's runner (the benchmark's own meta
# probe knows no avx512).
cargo build --quiet --offline --release --manifest-path "$wt_change/Cargo.toml" \
    -p ssync_bench --bin ssync-lab
tier=$("$wt_change/target/release/ssync-lab" tier)
nproc=$(nproc)

# Each end-to-end metric's better direction and bound, from BENCHMARK.json,
# as `metric<TAB>better<TAB>bound` lines.
spec=$(grep -oE '\{"name": "[a-z0-9_]+", "unit": "[^"]*", "better": "(lower|higher)", "bound": [0-9.]+\}' \
    BENCHMARK.json |
    sed -E 's/^\{"name": "([^"]+)", "unit": "[^"]*", "better": "([a-z]+)", "bound": ([0-9.]+)\}$/\1\t\2\t\3/')
spec+=$'\nfailed_share\tlower\t0'

stamp() {
    printf '%s\t%s\t%s\t%s\t%s\t%s\t%s' "$base_rev" "$change_rev" "$nproc" "$tier" "$1" "$seed" "$seconds"
}
if [[ ! -s $runs_out ]]; then
    printf 'base_rev\tchange_rev\tnproc\tkernel_tier\tworkload\tseed\tseconds\tpair\tside\tfirst\tmetric\tvalue\tunit\n' >"$runs_out"
fi
if [[ ! -s $summary_out ]]; then
    printf 'base_rev\tchange_rev\tnproc\tkernel_tier\tworkload\tseed\tseconds\tmetric\tunit\tbetter\tbase_median\tchange_median\tgain_pct\twins\tpairs\tbase_iqr\tclaim\tbound\tbound_ok\n' >"$summary_out"
fi

# One benchmark run: its metrics as `metric<TAB>value<TAB>unit` lines.
run_once() {
    local json
    json=$("$1" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 | grep '^{')
    grep -oE '"[A-Za-z0-9_.]+": \{"value": [^,]+, "unit": "[^"]*"\}' <<<"$json" |
        sed -E 's/^"([^"]+)": \{"value": ([^,]+), "unit": "([^"]*)"\}$/\1\t\2\t\3/'
    local attempted failed
    attempted=$(grep -oE '"attempted": [0-9]+' <<<"$json" | grep -oE '[0-9]+$')
    failed=$(grep -oE '"failed": [0-9]+' <<<"$json" | grep -oE '[0-9]+$')
    awk -v a="$attempted" -v f="$failed" 'BEGIN { printf "failed_share\t%.6f\tratio\n", (a > 0 ? f / a : 0) }'
}

# The summary rows of one workload, from `pair<TAB>side<TAB>metric<TAB>
# value<TAB>unit` lines on stdin, metrics in their first-seen order.
summarise() {
    awk -F'\t' -v stamp="$1" -v spec="$spec" '
        # Linear-interpolation quantile of the sorted x[0..k-1].
        function quantile(x, k, p,    h, lo) {
            h = (k - 1) * p
            lo = int(h)
            return lo + 1 < k ? x[lo] + (h - lo) * (x[lo + 1] - x[lo]) : x[lo]
        }
        function sort(x, k,    i, j, v) {
            for (i = 1; i < k; i++) {
                v = x[i]
                for (j = i - 1; j >= 0 && x[j] > v; j--) x[j + 1] = x[j]
                x[j + 1] = v
            }
        }
        BEGIN {
            n = split(spec, lines, "\n")
            for (i = 1; i <= n; i++) {
                split(lines[i], f, "\t")
                dir[f[1]] = f[2]
                bnd[f[1]] = f[3]
            }
        }
        {
            if (!($3 in unit)) order[nm++] = $3
            val[$3, $2, $1] = $4
            unit[$3] = $5
            if ($1 + 1 > np) np = $1 + 1
        }
        END {
            # The pairs both sides completed, and their failed shares.
            k = 0
            for (p = 0; p < np; p++) {
                if (!(("failed_share", "base", p) in val) || !(("failed_share", "change", p) in val)) continue
                done[k++] = p
                failed_base += val["failed_share", "base", p]
                failed_change += val["failed_share", "change", p]
            }
            if (k == 0) exit
            for (i = 0; i < nm; i++) {
                m = order[i]
                d = m in dir ? dir[m] : ""
                wins = 0
                for (j = 0; j < k; j++) {
                    bv[j] = val[m, "base", done[j]]
                    cv[j] = val[m, "change", done[j]]
                    if (d == "higher" ? cv[j] > bv[j] : d == "lower" ? cv[j] < bv[j] : 0) wins++
                }
                sort(bv, k)
                sort(cv, k)
                bm = quantile(bv, k, 0.5)
                cm = quantile(cv, k, 0.5)
                iqr = quantile(bv, k, 0.75) - quantile(bv, k, 0.25)
                # The gain and the worsening, each in the better direction.
                gain = d == "lower" ? bm - cm : cm - bm
                pct = bm != 0 ? 100 * gain / bm : 0
                claim = d != "" && k >= 10 && 10 * wins >= 9 * k && gain > iqr && failed_change <= failed_base ? "pass" : "fail"
                if (!(m in bnd)) bound_ok = "-"
                else bound_ok = -gain <= bnd[m] * (bm < 0 ? -bm : bm) ? "yes" : "no"
                printf "%s\t%s\t%s\t%s\t%.6g\t%.6g\t%+.2f\t%d\t%d\t%.6g\t%s\t%s\t%s\n",
                    stamp, m, unit[m], d == "" ? "-" : d, bm, cm, pct, wins, k, iqr, claim,
                    m in bnd ? bnd[m] : "-", bound_ok
            }
        }'
}

for workload in "${workloads[@]}"; do
    : >"$rows"
    for ((pair = 0; pair < pairs; pair++)); do
        if ((pair % 2 == 0)); then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do
            bench_var=bench_$side
            run_once "${!bench_var}" "$workload" |
                while IFS=$'\t' read -r metric value unit; do
                    printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$(stamp "$workload")" "$pair" "$side" \
                        "${order[0]}" "$metric" "$value" "$unit" >>"$runs_out"
                    printf '%s\t%s\t%s\t%s\t%s\n' "$pair" "$side" "$metric" "$value" "$unit" >>"$rows"
                done
        done
        echo "$workload pair $((pair + 1))/$pairs done (${order[0]} first)" >&2
    done
    summarise "$(stamp "$workload")" <"$rows" | tee -a "$summary_out"
done
