#!/usr/bin/env bash
# Bench-regression gate: runs the smoke benchmarks that guard the
# repository's headline performance properties, parses ns/op and
# allocs/op, and fails the build when either regresses more than the
# tolerance (default 30%) against the baseline recorded in
# .github/bench-baseline.json. Benchmarks added since the baseline are
# reported but do not fail the build (add them via -update).
#
#   scripts/bench_gate.sh          # check against the baseline
#   scripts/bench_gate.sh -update  # rewrite the baseline from HEAD
#
# The current run is always written to bench-results.json (override with
# BENCH_GATE_OUT) so CI can upload it as an artifact; the tolerance is
# overridable with BENCH_GATE_TOLERANCE (percent).
set -euo pipefail
cd "$(dirname "$0")/.."
baseline=.github/bench-baseline.json
out=${BENCH_GATE_OUT:-bench-results.json}
tol=${BENCH_GATE_TOLERANCE:-30}

# The guarded benchmarks: zero-alloc warm CoreTime builds, amortised
# O(1) single-edge appends, the lock-free concurrent read path and
# lock-free append latency under analytical load, O(lookup) warm
# serving-cache hits, incremental historical index maintenance plus
# O(lookup) historical cache hits, the HTTP serving layer's warm
# point-query round-trip, the durability tier's warm restart plus the PHC
# partial-range patch fix, and warm queries on a sharded view, which run
# on the unsharded executor and should cost what unsharded queries do.
# Fixed iteration counts keep run-to-run variance inside the tolerance.
#
# The enumerator's first-core cases guard its lazy window activation,
# which keeps a point query O(edges in range + start times swept)
# instead of O(|ECS|). The count cases guard the aggregate count of an
# unlimited Count, O(m + |ECS| log tlen + tlen) instead of O(|R|); at a
# few ms per CM count they run on a line of their own with fewer
# iterations. The cut cases beside them count a window cut from the full
# range's skyline, as the serving cache answers a cold window once it
# holds the full range.
raw=$(
  go test -run=NONE -bench='BenchmarkBuildScratchReuse$' -benchtime=3x -benchmem ./internal/vct/
  go test -run=NONE -bench='BenchmarkAppendOneByOne$' -benchtime=20000x -benchmem ./internal/tgraph/
  go test -run=NONE -bench='BenchmarkConcurrentServe$' -benchtime=500x -benchmem .
  go test -run=NONE -bench='BenchmarkAppendUnderAnalytics/epoch$' -benchtime=30x -benchmem .
  go test -run=NONE -bench='BenchmarkServingCacheHit$' -benchtime=100x -benchmem .
  go test -run=NONE -bench='BenchmarkHistoricalPatchVsRebuild$' -benchtime=5x -benchmem .
  go test -run=NONE -bench='BenchmarkHistoricalCacheHit$' -benchtime=100x -benchmem .
  go test -run=NONE -bench='BenchmarkServeQueryWarm$' -benchtime=200x -benchmem ./internal/serve/
  go test -run=NONE -bench='BenchmarkOpenWarm$' -benchtime=3x -benchmem .
  go test -run=NONE -bench='BenchmarkPHCPartialRangePatch$' -benchtime=3x -benchmem .
  go test -run=NONE -bench='BenchmarkShardedScatterGather$' -benchtime=20x -benchmem .
  go test -run=NONE -bench='BenchmarkEnumerate$/-first$' -benchtime=10000x -benchmem ./internal/enum/
  go test -run=NONE -bench='BenchmarkEnumerate$/-(count|cut)$' -benchtime=20x -benchmem ./internal/enum/
)
echo "$raw"

# Flatten to "name ns_per_op allocs_per_op", dropping the -GOMAXPROCS
# suffix so baselines transfer between machines with different CPU counts.
current=$(echo "$raw" | awk '
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op") ns = $(i - 1)
      if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns != "") printf "%s %s %s\n", name, ns, (allocs == "" ? 0 : allocs)
  }' | sort)

if [[ -z "$current" ]]; then
  echo "BENCH GATE: no benchmark output parsed" >&2
  exit 1
fi

# Render the flat list as the checked-in JSON layout (one benchmark per
# line, so the checker below can parse it without a JSON tool).
{
  echo '{'
  echo '  "benchmarks": {'
  first=1
  while read -r name ns allocs; do
    [[ -z "$name" ]] && continue
    [[ $first == 0 ]] && printf ',\n'
    printf '    "%s": {"ns_per_op": %s, "allocs_per_op": %s}' "$name" "$ns" "$allocs"
    first=0
  done <<<"$current"
  printf '\n  }\n}\n'
} >"$out"
echo "bench results written to $out"

if [[ "${1:-}" == "-update" ]]; then
  cp "$out" "$baseline"
  echo "bench baseline updated:"
  cat "$baseline"
  exit 0
fi

if [[ ! -f "$baseline" ]]; then
  echo "BENCH GATE: missing $baseline (run scripts/bench_gate.sh -update)" >&2
  exit 1
fi

base=$(awk '/"ns_per_op"/ {
  line = $0
  sub(/^[ \t]*"/, "", line)
  name = line; sub(/".*/, "", name)
  ns = line; sub(/.*"ns_per_op": */, "", ns); sub(/[^0-9.].*/, "", ns)
  al = line; sub(/.*"allocs_per_op": */, "", al); sub(/[^0-9.].*/, "", al)
  print name, ns, al
}' "$baseline" | sort)

fail=0
while read -r name bns bal; do
  [[ -z "$name" ]] && continue
  cur=$(awk -v n="$name" '$1 == n { print $2, $3 }' <<<"$current")
  if [[ -z "$cur" ]]; then
    echo "BENCH GATE FAIL: $name (baseline ${bns} ns/op) missing from the run" >&2
    fail=1
    continue
  fi
  read -r cns cal <<<"$cur"
  # ns/op: relative tolerance — but only for the deterministic benches.
  # The two contention benches (a reader racing a churner, an appender
  # racing an analytical reader) are scheduler-bound: their ns/op swings
  # several-fold between idle runs on shared machines, so for them only
  # allocs/op (the structural lock-freedom property) is gated and ns/op
  # is recorded informationally.
  # BenchmarkServeQueryWarm is a full loopback HTTP round-trip — kernel
  # scheduling and the network stack dominate, so it too is alloc-gated
  # with ns/op recorded informationally. BenchmarkOpenWarm/warm is
  # fsync-bound (the open rotates a WAL with a durability barrier), so
  # shared-runner disk latency dominates its few-ms ns/op; the cold
  # subtest is a compute-bound PHC rebuild and stays ns-gated.
  nscheck=1
  case "$name" in
  BenchmarkConcurrentServe/* | BenchmarkAppendUnderAnalytics/* | BenchmarkServeQueryWarm | BenchmarkOpenWarm/warm) nscheck=0 ;;
  esac
  if [[ $nscheck == 1 ]] && ! awk -v c="$cns" -v b="$bns" -v t="$tol" 'BEGIN { exit !(c <= b * (1 + t / 100)) }'; then
    echo "BENCH GATE FAIL: $name ns/op ${cns} is more than ${tol}% above the ${bns} baseline" >&2
    fail=1
  fi
  # allocs/op: relative tolerance plus an absolute slack of 2, so
  # near-zero baselines don't flag on noise.
  if ! awk -v c="$cal" -v b="$bal" -v t="$tol" 'BEGIN { exit !(c <= b * (1 + t / 100) + 2) }'; then
    echo "BENCH GATE FAIL: $name allocs/op ${cal} regressed vs the ${bal} baseline" >&2
    fail=1
  fi
done <<<"$base"

new=$(comm -13 <(awk '{print $1}' <<<"$base") <(awk '{print $1}' <<<"$current"))
if [[ -n "$new" ]]; then
  echo "BENCH GATE NOTE: benchmarks not yet in the baseline (add with -update):" $new
fi

if [[ "$fail" == 0 ]]; then
  echo "bench gate OK"
fi
exit $fail
