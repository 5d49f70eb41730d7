#!/usr/bin/env bash
# bench_compare.sh — rerun the headline harness benchmarks and diff the
# fresh numbers against the most recent entry recorded in
# BENCH_harness.json. Prints a per-benchmark table of recorded vs fresh
# ns/op with the ratio, and exits non-zero when any benchmark regressed
# beyond the tolerance (fresh > tolerance × recorded). -benchtime=1x runs
# carry noise, so the default tolerance is generous; tighten it with
# BENCH_TOLERANCE for dedicated runners.
#
# Usage: scripts/bench_compare.sh [extra go test args…]
#   BENCH_SECTION=serial_engine_only   which BENCH_harness.json entry to diff
#   BENCH_TOLERANCE=1.30               allowed fresh/recorded ratio
set -euo pipefail
cd "$(dirname "$0")/.."

section=${BENCH_SECTION:-serial_engine_only}
tolerance=${BENCH_TOLERANCE:-1.30}

fresh=$(./scripts/bench_harness.sh "$@")

# rec_value KEY — pull "KEY": N out of the chosen section's object in
# BENCH_harness.json; fresh_value KEY reads the flat harness output.
# awk keeps this jq-free.
rec_value() {
	awk -v sec="\"$section\":" -v key="\"$1\":" '
		index($0, sec) { insec = 1; next }
		insec && /\}/ { exit }
		insec && index($0, key) {
			v = $0
			sub(/^[^:]*:[[:space:]]*/, "", v)
			sub(/[,[:space:]].*$/, "", v)
			print v
			exit
		}' BENCH_harness.json
}
fresh_value() {
	printf '%s\n' "$fresh" | awk -v key="\"$1\":" '
		index($0, key) {
			v = $0
			sub(/^[^:]*:[[:space:]]*/, "", v)
			sub(/[,[:space:]].*$/, "", v)
			print v
			exit
		}'
}

status=0
printf '%-46s %14s %14s %7s\n' "benchmark ($section vs fresh)" "recorded" "fresh" "ratio"
for key in BenchmarkTable2Default_ns_per_op \
	BenchmarkSimulatorThroughput_ns_per_op \
	BenchmarkSimulatorThroughputMetrics_ns_per_op; do
	rec=$(rec_value "$key")
	new=$(fresh_value "$key")
	if [ -z "$rec" ] || [ -z "$new" ]; then
		echo "bench_compare: missing $key (section $section)" >&2
		status=1
		continue
	fi
	ratio=$(awk -v n="$new" -v r="$rec" 'BEGIN {printf "%.3f", n / r}')
	flag=$(awk -v q="$ratio" -v t="$tolerance" 'BEGIN {print (q > t) ? "REGRESSED" : "ok"}')
	printf '%-46s %14s %14s %7s %s\n' "${key%_ns_per_op}" "$rec" "$new" "$ratio" "$flag"
	if [ "$flag" = REGRESSED ]; then
		status=1
	fi
done
exit $status
