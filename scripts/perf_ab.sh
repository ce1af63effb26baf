#!/bin/sh
# perf-ab: same-host A/B of the repository benchmark (perfbench/) between a
# base revision and HEAD.
#
#   make perf-ab BASE=<rev> WORKLOAD=<name> PAIRS=<n>
#   sh scripts/perf_ab.sh <rev> <workload> <pairs>
#
# Each side is a checkout of the committed tree of its revision (BASE, and
# HEAD) in a temporary directory, built by its own perfbench/run.sh with its
# own CARGO_TARGET_DIR, so the two builds share no output or cache. The runs
# alternate, and the side that goes first flips every pair, so slow drift of
# the host's speed falls on both sides alike. Every run is 20 s, the
# benchmark's run length (BENCHMARK.json). The script prints every pair's
# end-to-end metrics, then each metric's per-side median and the HEAD/base
# ratio, then how many runs were correct and how many operations failed.
# It exits non-zero if any run is not correct or prints no result.
set -eu

cd "$(dirname "$0")/.."
REPO=$(pwd)

BASE=${1:?usage: perf_ab.sh <base-rev> <workload> <pairs>}
WORKLOAD=${2:?usage: perf_ab.sh <base-rev> <workload> <pairs>}
PAIRS=${3:-3}
SECS=20

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

# checkout <rev> <dir>: the committed tree of rev, without touching the
# repository's index, work tree or worktree list.
checkout() {
    mkdir -p "$2"
    git -C "$REPO" archive "$1" | tar -x -C "$2"
}

checkout "$BASE" "$TMP/base"
checkout HEAD "$TMP/head"
echo "perf-ab: base $(git rev-parse --short "$BASE"), head $(git rev-parse --short HEAD), $WORKLOAD, $PAIRS pairs of ${SECS}s" >&2

# run <side> <pair>: one benchmark run; its result line goes to
# $TMP/<side>.results. A run whose checks fail still prints a result line
# (with "correct":false) and is counted; a run that prints none aborts.
run() {
    (cd "$TMP/$1" && CARGO_TARGET_DIR="$TMP/build-$1" \
        bash perfbench/run.sh --workload "$WORKLOAD" --seed 1 --seconds "$SECS" --trace 0) \
        >"$TMP/$1.$2.out" 2>"$TMP/$1.$2.err" || true
    out=$(tail -n 1 "$TMP/$1.$2.out")
    case "$out" in
    '{"correct":'*) ;;
    *)
        echo "perf-ab: $1 run $2 printed no result line:" >&2
        tail -n 20 "$TMP/$1.$2.err" >&2
        exit 1
        ;;
    esac
    echo "$out" >>"$TMP/$1.results"
    echo "pair $2 $1: $out"
}

# Build both sides first, so no build lands between measured runs.
for side in base head; do
    (cd "$TMP/$side" && CARGO_TARGET_DIR="$TMP/build-$side" bash perfbench/run.sh -h) >/dev/null 2>&1
done

i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
    i=$((i + 1))
done

# Summary: flatten each result line into "side metric value" rows, and
# "side correct <0|1>" / "side failed <n>" rows, then take medians.
for side in base head; do
    awk -v side="$side" '{
        if (match($0, /"correct":[a-z]+/)) print side, "correct", (substr($0, RSTART + 10, RLENGTH - 10) == "true")
        if (match($0, /"failed":[0-9]+/)) print side, "failed", substr($0, RSTART + 9, RLENGTH - 9)
        s = $0
        while (match(s, /"[a-z0-9_]+":\{"value":[-0-9.eE+]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            name = m; sub(/^"/, "", name); sub(/".*/, "", name)
            v = m; sub(/.*"value":/, "", v)
            print side, name, v
        }
    }' "$TMP/$side.results"
done | sort -k2,2 -k1,1 -k3,3g | awk '
    function flush(   mb, mh, n) {
        if (metric == "") return
        if (metric == "correct") {
            printf "%-16s base %d/%d  head %d/%d runs correct\n", metric, sum["base"], cnt["base"], sum["head"], cnt["head"]
            nok = (sum["base"] < cnt["base"] || sum["head"] < cnt["head"])
        } else if (metric == "failed") {
            printf "%-16s base %d  head %d\n", metric, sum["base"], sum["head"]
        } else {
            mb = median("base"); mh = median("head")
            printf "%-16s base %12.4f  head %12.4f  head/base %.3f\n", metric, mb, mh, (mb != 0 ? mh / mb : 0)
        }
        delete vals; delete cnt; delete sum
    }
    function median(side,   n) {
        n = cnt[side]
        if (n == 0) return 0
        if (n % 2) return vals[side, (n + 1) / 2]
        return (vals[side, n / 2] + vals[side, n / 2 + 1]) / 2
    }
    $2 != metric { flush(); metric = $2 }
    { cnt[$1]++; vals[$1, cnt[$1]] = $3; sum[$1] += $3 }
    END { flush(); exit nok }
'
