#!/bin/sh
# perf-report: where the OoO cycle loop spends its time. Runs
# BenchmarkQuickSweep92 under the CPU profiler and prints, for each
# pipeline stage Core.Step calls, its cumulative share of the profile
# (go tool pprof -top -cum), plus Step itself for the whole loop.
#
#   make perf-report
#   sh scripts/perf_report.sh
#
# The profile and test binary go to a temporary directory that is removed
# on exit. Shares move by a point or two between runs on a shared host.
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

go test -run='^$' -bench='^BenchmarkQuickSweep92$' -benchtime=20x \
    -cpuprofile "$TMP/cpu.out" -o "$TMP/nda.test" . >"$TMP/bench.txt"
grep '^BenchmarkQuickSweep92' "$TMP/bench.txt" >&2 || true
go tool pprof -top -cum "$TMP/nda.test" "$TMP/cpu.out" >"$TMP/top.txt" 2>/dev/null

# A -top line reads: flat flat% sum% cum cum% name. The stages are listed
# in Step's order; a stage pprof sampled nothing in reads 0.00%.
printf '%-10s %-28s %s\n' stage function cum%
for pair in step:Step fetch:fetchStage dispatch:dispatchStage \
    issue:issueStage complete:completeExecution expose:exposeSafeLoads \
    broadcast:broadcastStage commit:commitStage; do
    stage=${pair%%:*}
    fn=${pair#*:}
    share=$(awk -v f="nda/internal/ooo.(*Core).$fn" '$6 == f { print $5; exit }' "$TMP/top.txt")
    printf '%-10s %-28s %s\n' "$stage" "$fn" "${share:-0.00%}"
done
