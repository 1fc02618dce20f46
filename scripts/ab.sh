#!/usr/bin/env bash
# A/B benchmark of the working tree against a parent revision: alternating
# pairs of perfbench runs, the protocol every performance claim uses.
#
#   scripts/ab.sh <parent-rev> <workload> <pairs> <first-seed> [seconds]
#
# Builds perfbench twice, into separate directories under $AB_DIR (default:
# a fresh temporary directory): once from a `git archive` copy of
# <parent-rev>, once from the working tree (uncommitted edits included).
# Then it runs <pairs> pairs of untraced <seconds>-second runs (default 10)
# of <workload>; pair i uses seed <first-seed>+i for both sides, and the
# side that runs first flips every pair. Each pair's end-to-end metrics come
# from perfbench's final JSON line. The summary gives, per metric, each
# side's median and quartiles, the median ratio, the number of pairs the
# change won in the metric's `better` direction (BENCHMARK.json), and a
# verdict:
#
#   gain        the change won at least 9/10 of the pairs (ties count for
#               neither side) and its median is better than the parent's
#               by more than the parent's interquartile range;
#   worse       the change's median is worse than the parent's by more than
#               the metric's relative `bound` (BENCHMARK.json);
#   unresolved  neither, and the parent's interquartile range is wider than
#               the bound (relative to its median): the runs spread too
#               widely to call the metric unchanged;
#   same        otherwise.
#
# Each run also records the host's steal share: the `steal` column of the
# `cpu` line in /proc/stat, read before and after the run, as a percentage
# of all CPU time in between. A pair whose two sides differ by more than
# 5 points is marked `steal-skewed`: its latency tails say more about the
# hypervisor than about the code. The summary adds each side's median steal.
#
# Each run also records its wall time, CPU seconds (user + sys, from
# bash's `time`) and sys seconds under runs/<side>-<seed>.time. Each pair
# prints `cpu_x = cpu / wall` and `sys_x = sys / wall` for both sides, and
# the summary gives each side's medians, so a claim about using more cores
# shows whether the host actually ran them, and how much of that was spent
# in the kernel (waits that yield or block) rather than in user code.
#
# Example: scripts/ab.sh HEAD plan_search 10 1001
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <first-seed> [seconds]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seed0=$4 seconds=${5:-10}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/dace-ab.XXXXXX")}
mkdir -p "$dir/parent" "$dir/runs"
echo "ab: work directory $dir"

echo "ab: building perfbench at $rev"
rm -rf "$dir/parent"/*
git -C "$root" archive "$rev" | tar -x -C "$dir/parent"
CARGO_TARGET_DIR="$dir/parent-target" cargo build --release --offline --quiet \
    --manifest-path "$dir/parent/perfbench/Cargo.toml"
echo "ab: building perfbench from the working tree"
CARGO_TARGET_DIR="$dir/change-target" cargo build --release --offline --quiet \
    --manifest-path "$root/perfbench/Cargo.toml"
declare -A bin=(
    [parent]="$dir/parent-target/release/dace-perfbench"
    [change]="$dir/change-target/release/dace-perfbench"
)

# Metric name, better direction (higher|lower) and relative bound, one per
# line.
metrics=$(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json")

# Cumulative steal and total jiffies of the host's `cpu` line (user nice
# system idle iowait irq softirq steal; guest time is inside user).
cpu_jiffies() {
    awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
}

# One run: prints perfbench's final JSON line, or exits on a failed check.
# The run's steal share (percent) goes to runs/<side>-<seed>.steal, and its
# wall, CPU and sys seconds ("wall cpu sys") to runs/<side>-<seed>.time.
run() {
    local side=$1 seed=$2 log="$dir/runs/$1-$2.txt" s0 t0 s1 t1 ok=0
    local TIMEFORMAT='%R %U %S'
    read -r s0 t0 < <(cpu_jiffies)
    { time (cd "$root" && "${bin[$side]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$log" 2>&1) || ok=$?; } 2>"$dir/runs/$side-$seed.rus"
    if ((ok != 0)); then
        echo "ab: $side run failed on seed $seed (log: $log)" >&2
        tail -5 "$log" >&2
        exit 1
    fi
    awk '{ printf "%.2f %.2f %.2f\n", $1, $2 + $3, $3 }' "$dir/runs/$side-$seed.rus" >"$dir/runs/$side-$seed.time"
    read -r s1 t1 < <(cpu_jiffies)
    awk -v s=$((s1 - s0)) -v t=$((t1 - t0)) \
        'BEGIN { printf "%.2f\n", (t > 0 ? 100 * s / t : 0) }' >"$dir/runs/$side-$seed.steal"
    grep '^{' "$log" | tail -1
}

: >"$dir/pairs.tsv"
: >"$dir/steal.tsv"
: >"$dir/cpu.tsv"
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    declare -A json=()
    for side in "${order[@]}"; do
        json[$side]=$(run "$side" "$seed")
    done
    line="pair $((i + 1)) seed $seed (${order[0]} first):"
    while read -r name better _; do
        p=$(jq -r ".metrics.\"$name\".value" <<<"${json[parent]}")
        c=$(jq -r ".metrics.\"$name\".value" <<<"${json[change]}")
        printf '%s\t%s\t%s\t%s\n' "$name" "$better" "$p" "$c" >>"$dir/pairs.tsv"
        line+=$(printf ' %s %.4g -> %.4g;' "$name" "$p" "$c")
    done <<<"$metrics"
    for side in parent change; do
        line+=$(jq -r '" \(.failed)/\(.attempted) failed"' <<<"${json[$side]}")
    done
    sp=$(<"$dir/runs/parent-$seed.steal") sc=$(<"$dir/runs/change-$seed.steal")
    printf '%s\t%s\n' "$sp" "$sc" >>"$dir/steal.tsv"
    line+=" steal $sp% -> $sc%"
    line+=$(awk -v p="$sp" -v c="$sc" 'BEGIN { d = p - c; if (d > 5 || d < -5) printf " steal-skewed" }')
    read -r wp cp yp <"$dir/runs/parent-$seed.time"
    read -r wc cc yc <"$dir/runs/change-$seed.time"
    ratio() { awk -v w="$1" -v c="$2" 'BEGIN { printf "%.2f", (w > 0 ? c / w : 0) }'; }
    xp=$(ratio "$wp" "$cp") xc=$(ratio "$wc" "$cc")
    zp=$(ratio "$wp" "$yp") zc=$(ratio "$wc" "$yc")
    printf '%s\t%s\t%s\t%s\n' "$xp" "$xc" "$zp" "$zc" >>"$dir/cpu.tsv"
    line+=" wall ${wp}s -> ${wc}s cpu ${cp}s -> ${cc}s sys ${yp}s -> ${yc}s"
    line+=" cpu_x $xp -> $xc sys_x $zp -> $zc"
    echo "$line"
done

# Median, first and third quartile (linear interpolation) of the numbers
# on stdin.
quartiles() {
    sort -g | awk '{ v[n++] = $1 }
        function q(p,    h, lo) {
            h = (n - 1) * p; lo = int(h)
            return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
        }
        END { printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

echo
echo "ab: $workload over $pairs pairs, $seconds s runs, parent $rev vs working tree"
printf '%-12s %30s %30s %7s %6s %10s\n' metric "parent median [q1, q3]" \
    "change median [q1, q3]" ratio wins verdict
while read -r name better bound; do
    read -r pm p1 p3 < <(awk -F'\t' -v m="$name" '$1 == m { print $3 }' "$dir/pairs.tsv" | quartiles)
    read -r cm c1 c3 < <(awk -F'\t' -v m="$name" '$1 == m { print $4 }' "$dir/pairs.tsv" | quartiles)
    wins=$(awk -F'\t' -v m="$name" -v better="$better" '$1 == m {
            if ((better == "higher" && $4 > $3) || (better == "lower" && $4 < $3)) w++
        } END { print w + 0 }' "$dir/pairs.tsv")
    ratio=$(awk -v p="$pm" -v c="$cm" 'BEGIN { printf "%.3f", p != 0 ? c / p : 0 }')
    # The verdict of the header comment; `gain` is how far the change's
    # median is better than the parent's (negative when it is worse).
    verdict=$(awk -v pm="$pm" -v p1="$p1" -v p3="$p3" -v cm="$cm" -v wins="$wins" \
        -v pairs="$pairs" -v better="$better" -v bound="$bound" 'BEGIN {
            gain = (better == "higher") ? cm - pm : pm - cm
            scale = pm < 0 ? -pm : pm
            if (10 * wins >= 9 * pairs && gain > p3 - p1) print "gain"
            else if (-gain > bound * scale) print "worse"
            else if (p3 - p1 > bound * scale) print "unresolved"
            else print "same"
        }')
    printf '%-12s %30s %30s %7s %6s %10s\n' "$name" "$pm [$p1, $p3]" "$cm [$c1, $c3]" \
        "$ratio" "$wins/$pairs" "$verdict"
done <<<"$metrics"
read -r pm p1 p3 < <(cut -f1 "$dir/steal.tsv" | quartiles)
read -r cm c1 c3 < <(cut -f2 "$dir/steal.tsv" | quartiles)
skewed=$(awk -F'\t' '{ d = $1 - $2 } d > 5 || d < -5 { n++ } END { print n + 0 }' "$dir/steal.tsv")
printf '%-12s %30s %30s %7s %6s\n' "steal_pct" "$pm [$p1, $p3]" "$cm [$c1, $c3]" "-" \
    "$skewed/$pairs"
read -r pm p1 p3 < <(cut -f1 "$dir/cpu.tsv" | quartiles)
read -r cm c1 c3 < <(cut -f2 "$dir/cpu.tsv" | quartiles)
printf '%-12s %30s %30s %7s %6s\n' "cpu_x" "$pm [$p1, $p3]" "$cm [$c1, $c3]" "-" "-"
read -r pm p1 p3 < <(cut -f3 "$dir/cpu.tsv" | quartiles)
read -r cm c1 c3 < <(cut -f4 "$dir/cpu.tsv" | quartiles)
printf '%-12s %30s %30s %7s %6s\n' "sys_x" "$pm [$p1, $p3]" "$cm [$c1, $c3]" "-" "-"
echo "(steal_pct: the host's steal share of CPU time during each run; its last column counts steal-skewed pairs)"
echo "(cpu_x: each run's CPU seconds, user + sys, over its wall seconds: about the number of cores it kept busy)"
echo "(sys_x: each run's sys seconds over its wall seconds: the share of those cores spent in the kernel)"
