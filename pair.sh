#!/usr/bin/env sh
# Alternating parent/change pairs of the benchmark, and the table CHANGES.md
# reports them in.
#
# Usage: ./pair.sh --parent REV --workloads W[,W...] --seeds A-B [--seconds S]
#
# Builds perfbench twice: from a `git archive` of REV (the parent) and from
# this working tree (the change), each with its own CARGO_TARGET_DIR. For
# every workload and seed it then runs both `perf` binaries, each from its
# own tree's root, alternating which side goes first. Every run's whole
# output is kept in the work directory printed at the start and the end.
# A run whose `correct` is false is printed with its `GATE FAILED` lines
# and stays in the table.
#
# One cell per workload and end-to-end metric:
#   parent median [q1, q3] → change median [q1, q3] (ratio×, wins/pairs, parent IQR)
# A metric is marked unresolved when the parent's IQR exceeds the metric's
# bound in BENCHMARK.json (a fraction of the parent's median), or when the
# change wins fewer than 8 of every 10 pairs. With REV = HEAD and a clean
# tree this is an A/A run: the box's own noise per metric.
set -eu

usage() {
    echo "usage: $0 --parent REV --workloads W[,W...] --seeds A-B [--seconds S]" >&2
    exit 2
}

parent='' workloads='' seeds='' seconds=10
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --parent) parent=$2 ;;
        --workloads) workloads=$2 ;;
        --seeds) seeds=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$parent" ] && [ -n "$workloads" ] && [ -n "$seeds" ] || usage
first=${seeds%-*}
last=${seeds#*-}
case "$first$last" in *[!0-9]*|'') usage ;; esac
[ "$first" -le "$last" ] || usage

root=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
echo "pair.sh: work directory $work"
mkdir -p "$work/parent" "$work/logs"
git -C "$root" archive "$parent" | tar -x -C "$work/parent"

build() { # tree side
    echo "pair.sh: building $2 ($1)"
    (cd "$1" && CARGO_TARGET_DIR="$work/target-$2" cargo build --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml)
}
build "$work/parent" parent
build "$root" change

run() { # side workload seed
    if [ "$1" = parent ]; then tree=$work/parent; else tree=$root; fi
    log=$work/logs/$2.$3.$1.log
    status=0
    (cd "$tree" && CARGO_TARGET_DIR="$work/target-$1" "$work/target-$1/release/perf" \
        --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) > "$log" 2>&1 || status=$?
    if ! tail -n 1 "$log" | grep -q '^{"correct":true'; then
        echo "pair.sh: $2 seed $3 $1: correct false (exit $status)"
        grep 'GATE FAILED' "$log" || tail -n 5 "$log"
    fi
}

for w in $(echo "$workloads" | tr ',' ' '); do
    s=$first
    while [ "$s" -le "$last" ]; do
        if [ $(( (s - first) % 2 )) -eq 0 ]; then
            run parent "$w" "$s"; run change "$w" "$s"
        else
            run change "$w" "$s"; run parent "$w" "$s"
        fi
        s=$((s + 1))
    done
done

# One line per run: workload seed side correct goodput latency rss setup.
for log in "$work"/logs/*.log; do
    name=$(basename "$log" .log)
    tail -n 1 "$log" | awk -v name="$name" '
        function value(key,   rest) {
            if (!match($0, "\"" key "\":\\{\"value\":[^,}]*")) return "nan"
            rest = substr($0, RSTART, RLENGTH)
            sub(/.*"value":/, "", rest)
            return rest
        }
        {
            split(name, part, ".")
            correct = index($0, "{\"correct\":true") == 1 ? "true" : "false"
            print part[1], part[2], part[3], correct, value("goodput_rps"),
                value("latency_mean_ms"), value("peak_rss_mb"), value("setup_s")
        }'
done > "$work/runs.txt"

bounds=$(awk '
    /"end_to_end"/ { inside = 1 }
    /"per_layer"/ { inside = 0 }
    inside && /"name"/ { gsub(/[",]/, ""); name = $2 }
    inside && /"bound"/ { gsub(/[",]/, ""); printf "%s=%s ", name, $2 }' "$root/BENCHMARK.json")

echo
echo "| workload | goodput_rps | latency_mean_ms | peak_rss_mb | setup_s | failed runs (parent, change) |"
echo "|---|---|---|---|---|---|"
awk -v bounds="$bounds" -v seeds="$first–$last" '
    BEGIN {
        split("goodput_rps latency_mean_ms peak_rss_mb setup_s", metric, " ")
        split("higher lower lower lower", better, " ")
        n = split(bounds, b, " ")
        for (i = 1; i <= n; i++) { split(b[i], kv, "="); bound[kv[1]] = kv[2] }
    }
    {
        w = $1; key = w SUBSEP $3
        if (!(w in seen)) { seen[w] = 1; order[++workloads] = w }
        if ($4 != "true") failed[key]++
        for (m = 1; m <= 4; m++) val[key, $2, m] = $(4 + m)
        seed[w, $2] = 1
    }
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    function quantile(a, n, q,   h, lo) {
        h = (n - 1) * q; lo = int(h)
        return lo + 1 < n ? a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) : a[n]
    }
    function num(x) { return sprintf(x >= 1000 ? "%.0f" : x >= 10 ? "%.1f" : "%.4g", x) }
    END {
        for (i = 1; i <= workloads; i++) {
            w = order[i]; row = "| " w ", seeds " seeds " |"
            for (m = 1; m <= 4; m++) {
                np = nc = pairs = wins = 0
                split("", p); split("", c)
                for (k in seed) {
                    split(k, ks, SUBSEP)
                    if (ks[1] != w) continue
                    pv = val[w SUBSEP "parent", ks[2], m]; cv = val[w SUBSEP "change", ks[2], m]
                    if (pv != "") p[++np] = pv + 0
                    if (cv != "") c[++nc] = cv + 0
                    if (pv == "" || cv == "") continue
                    pairs++
                    if ((better[m] == "higher" && cv + 0 > pv + 0) || (better[m] == "lower" && cv + 0 < pv + 0)) wins++
                }
                sort(p, np); sort(c, nc)
                pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
                iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
                cell = sprintf("%s [%s, %s] → %s [%s, %s] (%s×, %d/%d, %s)",
                    num(pm), num(quantile(p, np, 0.25)), num(quantile(p, np, 0.75)),
                    num(cm), num(quantile(c, nc, 0.25)), num(quantile(c, nc, 0.75)),
                    pm == 0 ? "–" : sprintf("%.3f", cm / pm), wins, pairs, num(iqr))
                if (pm != 0 && iqr > bound[metric[m]] * pm) cell = cell " unresolved: parent IQR > " bound[metric[m]] * 100 "%"
                else if (wins * 10 < 8 * pairs) cell = cell " unresolved: wins"
                row = row " " cell " |"
            }
            print row " " failed[w SUBSEP "parent"] + 0 ", " failed[w SUBSEP "change"] + 0 " |"
        }
    }' "$work/runs.txt"
echo
echo "pair.sh: every run's output is under $work/logs"
