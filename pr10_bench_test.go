package temporalkcore_test

import (
	"context"
	"testing"

	tkc "temporalkcore"
)

// shardedBenchWindows derives the two serving-shaped windows the sharded
// benchmarks use on a graph with raw span [lo, hi]: the trailing tenth
// (the fresh-data window every serving workload polls) and a window of the
// same width centred on `cut` (a query across a sealed shard boundary).
// Full-span enumeration is deliberately not benchmarked: its cost is the
// size of its own output (millions of cores on the CM replica), which
// drowns the serving-path costs these benches guard.
func shardedBenchWindows(lo, hi, cut int64) (tlo, thi, clo, chi int64) {
	w := (hi - lo) / 10
	return hi - w, hi, cut - w/2, cut + w/2
}

// BenchmarkShardedScatterGather measures the steady-state cost of warm
// count queries against a time-range sharded CM replica, next to the
// unsharded path on the same graph: a trailing-window query (inside the
// frontier shard) and a cut-crossing query (overlapping two shards).
//
// A sharded query runs on the unsharded executor over the view's epoch
// and only counts the shards its window overlaps, so the sharded subtests
// should match the unsharded ones. Every subtest is single-threaded and
// the bench gate checks both ns/op and allocs/op: the sharded subtests
// bound what the sharded view adds to the unsharded floor.
func BenchmarkShardedScatterGather(b *testing.B) {
	ctx := context.Background()
	base, tail := cmStream(b)
	full := append(append([]tkc.Edge(nil), base...), tail...)
	g, err := tkc.NewGraph(full)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := g.TimeSpan()
	const k = 5

	run := func(src tkc.Querier, ws, we int64) func(b *testing.B) {
		return func(b *testing.B) {
			// Warm pass: populate the serving cache so the loop measures
			// steady-state serving, not index builds.
			if _, err := src.Query(k).Window(ws, we).Count(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Query(k).Window(ws, we).Count(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	sg, err := tkc.ShardGraph(g, tkc.ShardOptions{Shards: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer sg.Close()
	stats := sg.ShardStats()
	cut := stats[len(stats)-2].EndTime // newest sealed boundary
	tlo, thi, clo, chi := shardedBenchWindows(lo, hi, cut)
	v := sg.Latest()

	b.Run("unsharded/trailing", run(g, tlo, thi))
	b.Run("unsharded/cross-cut", run(g, clo, chi))
	b.Run("sharded/trailing", run(v, tlo, thi))
	b.Run("sharded/cross-cut", run(v, clo, chi))
}
