package temporalkcore_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	tkc "temporalkcore"
)

// shardedMustMatch runs the same query sharded (through v) and unsharded
// (through v's pinned snapshot — the same epoch, so the comparison is
// exact) and requires identical results under every projection.
func shardedMustMatch(t *testing.T, v *tkc.ShardedView, k int, start, end int64) tkc.QueryStats {
	t.Helper()
	var qs tkc.QueryStats
	for _, proj := range []tkc.Projection{tkc.ProjectEdges, tkc.ProjectVertices, tkc.ProjectCount} {
		want, err := v.Snapshot().Query(k).Window(start, end).Project(proj).Collect(context.Background())
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		var st tkc.QueryStats
		got, err := v.Query(k).Window(start, end).Project(proj).Stats(&st).Collect(context.Background())
		if err != nil {
			t.Fatalf("sharded: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sharded/unsharded mismatch (k=%d w=[%d,%d] proj=%d): %d vs %d cores",
				k, start, end, proj, len(got), len(want))
		}
		if st.Shards < 1 {
			t.Fatalf("sharded query reported %d overlapping shards", st.Shards)
		}
		qs = st
	}
	return qs
}

func TestShardedMatchesUnsharded(t *testing.T) {
	edges := randomEdges(11, 18, 900, 40)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.TimeSpan()
	for _, parts := range []int{1, 3, 5} {
		sg, err := tkc.ShardGraph(g, tkc.ShardOptions{Shards: parts})
		if err != nil {
			t.Fatal(err)
		}
		if parts > 1 && sg.NumShards() < 2 {
			t.Fatalf("ShardGraph(%d) produced %d shards", parts, sg.NumShards())
		}
		v := sg.Latest()
		for k := 1; k <= 3; k++ {
			shardedMustMatch(t, v, k, lo, hi)
			shardedMustMatch(t, v, k, lo+(hi-lo)/4, lo+3*(hi-lo)/4)
			shardedMustMatch(t, v, k, lo, lo+(hi-lo)/2)
		}
		sg.Close()
	}
}

// TestShardedBoundarySpanningCores builds a window that crosses every cut
// and requires it to overlap several shards, to hold result cores that
// themselves span a cut, and to match the oracle.
func TestShardedBoundarySpanningCores(t *testing.T) {
	edges := randomEdges(23, 12, 1200, 30) // dense: cores span wide windows
	sg, err := tkc.NewSharded(edges, tkc.ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	v := sg.Latest()
	lo, hi := sg.Spine().TimeSpan()

	// Warm the cache, then query across the cuts.
	shardedMustMatch(t, v, 2, lo, hi)
	st := shardedMustMatch(t, v, 2, lo, hi)
	if !st.CacheHit {
		t.Fatalf("warm cross-shard query missed the cache: %+v", st)
	}
	if st.Shards < 2 {
		t.Fatalf("cross-shard window overlaps %d shards, want >= 2: %+v", st.Shards, st)
	}

	// At least one result core must itself span a cut.
	cores, err := v.Query(2).Window(lo, hi).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := sg.ShardStats()
	spanning := false
	for _, c := range cores {
		for _, s := range stats {
			if s.Sealed && c.Start <= s.EndTime && c.End > s.EndTime {
				spanning = true
			}
		}
	}
	if !spanning {
		t.Fatal("no result core spans a shard cut; the boundary case is untested")
	}
}

// TestShardedQuerySharesUnshardedTables requires a sharded query to run as
// the unsharded query of the same window on the view's epoch: once the
// view's Snapshot has counted a cut-crossing window, the sharded count of
// that window is a cache hit that pays no CoreTime phase, with the same
// result.
func TestShardedQuerySharesUnshardedTables(t *testing.T) {
	sg, err := tkc.NewSharded(randomEdges(23, 12, 1200, 30), tkc.ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	v := sg.Latest()
	lo, hi := sg.Spine().TimeSpan()
	_, _, start, end := shardedBenchWindows(lo, hi, sg.ShardStats()[1].EndTime)
	ctx := context.Background()

	want, err := v.Snapshot().Query(2).Window(start, end).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want.Cores == 0 {
		t.Fatal("cut-crossing window holds no cores; the comparison is vacuous")
	}
	got, err := v.Query(2).Window(start, end).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit || got.CoreTime != 0 || got.Shards < 2 {
		t.Fatalf("sharded count after the unsharded one: cacheHit=%v coreTime=%v shards=%d, want a hit with no CoreTime over >= 2 shards",
			got.CacheHit, got.CoreTime, got.Shards)
	}
	if got.Cores != want.Cores || got.Edges != want.Edges {
		t.Fatalf("sharded count %d/%d, unsharded %d/%d", got.Cores, got.Edges, want.Cores, want.Edges)
	}
}

func TestShardedAppendSealLifecycle(t *testing.T) {
	edges := randomEdges(5, 14, 1400, 60)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time })
	base, rest := edges[:300], edges[300:]

	sg, err := tkc.NewSharded(base, tkc.ShardOptions{MaxShardEdges: 250})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	var reader *tkc.ShardedGraph = sg
	var _ tkc.AppendSink = reader // compile-time: streams ingest through it

	before := sg.NumShards()
	for i := 0; i < len(rest); i += 100 {
		j := i + 100
		if j > len(rest) {
			j = len(rest)
		}
		if _, err := sg.Append(rest[i:j]...); err != nil {
			t.Fatalf("append batch at %d: %v", i, err)
		}
		v := sg.Latest()
		lo, hi := sg.Spine().TimeSpan()
		shardedMustMatch(t, v, 2, lo, hi)
	}
	if sg.NumShards() <= before {
		t.Fatalf("auto-seal never fired: %d shards before, %d after", before, sg.NumShards())
	}

	// A manual seal freezes the rest of the frontier (all but the newest
	// rank) and a second seal with nothing new is a no-op.
	if _, err := sg.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed, err := sg.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if sealed {
		t.Fatal("second Seal with no new ranks reported a seal")
	}

	stats := sg.ShardStats()
	if len(stats) != sg.NumShards() {
		t.Fatalf("ShardStats has %d entries for %d shards", len(stats), sg.NumShards())
	}
	total := 0
	for i, s := range stats {
		if s.ID != i {
			t.Fatalf("ShardStats[%d].ID = %d", i, s.ID)
		}
		if s.Sealed != (i < len(stats)-1) {
			t.Fatalf("ShardStats[%d].Sealed = %v", i, s.Sealed)
		}
		if i > 0 && s.Edges > 0 && stats[i-1].Edges > 0 && s.StartTime <= stats[i-1].EndTime {
			t.Fatalf("shard %d overlaps its predecessor: %+v then %+v", i, stats[i-1], s)
		}
		total += s.Edges
	}
	if total != sg.Spine().NumEdges() {
		t.Fatalf("shard edge counts sum to %d, graph has %d", total, sg.Spine().NumEdges())
	}

	lo, hi := sg.Spine().TimeSpan()
	shardedMustMatch(t, sg.Latest(), 2, lo, hi)
}

// TestShardedAppendRejectedAfterSeal sends a batch the spine rejects once
// the frontier is full: the auto-seal that runs before the batch is
// published, and the batch leaves no trace.
func TestShardedAppendRejectedAfterSeal(t *testing.T) {
	sg, err := tkc.NewSharded(randomEdges(5, 14, 400, 60), tkc.ShardOptions{MaxShardEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	edges, shards := sg.Spine().NumEdges(), sg.NumShards()
	lo, _ := sg.Spine().TimeSpan()
	if _, err := sg.Append(tkc.Edge{U: 1, V: 2, Time: lo - 1}); err == nil {
		t.Fatal("Append accepted an edge older than the frontier")
	}
	if got := sg.NumShards(); got != shards+1 {
		t.Fatalf("latest view has %d shards, want the sealed %d", got, shards+1)
	}
	if got := sg.Latest().Snapshot().NumEdges(); got != edges || sg.Spine().NumEdges() != edges {
		t.Fatalf("rejected batch changed the graph: view %d, spine %d, want %d edges", got, sg.Spine().NumEdges(), edges)
	}
}

func TestShardedBuilderGuards(t *testing.T) {
	sg, err := tkc.NewSharded(randomEdges(2, 10, 200, 12), tkc.ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	ctx := context.Background()
	if _, err := sg.Query(2).Algorithm(tkc.AlgoOTCD).Collect(ctx); err == nil {
		t.Fatal("Algorithm accepted on a sharded request")
	}
	if _, err := sg.Query(2).Snapshot(1).Collect(ctx); err == nil {
		t.Fatal("Snapshot accepted on a sharded request")
	}
	if _, err := sg.Query(0).Collect(ctx); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestShardedEarlyStopAndSeq(t *testing.T) {
	sg, err := tkc.NewSharded(randomEdges(31, 14, 700, 30), tkc.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	v := sg.Latest()
	lo, hi := sg.Spine().TimeSpan()
	ctx := context.Background()

	all, err := v.Query(2).Window(lo, hi).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Skip("graph too sparse for an early-stop test")
	}
	few, err := v.Query(2).Window(lo, hi).EarlyStop(3).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(few, all[:3]) {
		t.Fatal("EarlyStop(3) is not the 3-core prefix of the full result")
	}

	// Seq streaming with a mid-stream break matches the prefix too.
	var streamed []tkc.Core
	for c, err := range v.Query(2).Window(lo, hi).Seq(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, c)
		if len(streamed) == 2 {
			break
		}
	}
	if !reflect.DeepEqual(streamed, all[:2]) {
		t.Fatal("broken Seq stream is not the 2-core prefix")
	}

	// QueryJSON compiles against the view through RequestFrom.
	req, err := tkc.QueryJSON{K: 2, EarlyStop: 3}.RequestFrom(v)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := req.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire, all[:3]) {
		t.Fatal("RequestFrom(view) result differs from the builder path")
	}
	if _, err := (tkc.QueryJSON{K: 2, Algorithm: "otcd"}).RequestFrom(v); err == nil {
		t.Fatal("RequestFrom accepted an algorithm override on a sharded source")
	}
}

// raceEnabled reports a -race build (see race_enabled_test.go).
var raceEnabled bool

// TestShardedCountAllocs guards the warm sharded count against per-result
// costs of its own: on a trailing window (the frontier span alone) and on
// a window across the newest cut (a sealed span plus the frontier), it
// allocates no more than the unsharded count of the same window plus a
// small constant, however many result edges the window holds.
func TestShardedCountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled paths are noise under -race")
	}
	const k, slack = 3, 4
	g, err := tkc.NewGraph(randomEdges(17, 40, 6000, 400))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := tkc.ShardGraph(g, tkc.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	v := sg.Latest()
	lo, hi := g.TimeSpan()
	stats := sg.ShardStats()
	tlo, thi, clo, chi := shardedBenchWindows(lo, hi, stats[len(stats)-2].EndTime)
	ctx := context.Background()
	for _, w := range []struct {
		name       string
		start, end int64
	}{{"trailing", tlo, thi}, {"cross-cut", clo, chi}} {
		count := func(src tkc.Querier) (tkc.QueryStats, float64) {
			qs, err := src.Query(k).Window(w.start, w.end).Count(ctx) // warm the cache
			if err != nil {
				t.Fatal(err)
			}
			return qs, testing.AllocsPerRun(20, func() {
				if _, err := src.Query(k).Window(w.start, w.end).Count(ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		want, unsharded := count(g)
		got, sharded := count(v)
		if got.Cores != want.Cores || got.Edges != want.Edges {
			t.Fatalf("%s: sharded count %d/%d, unsharded %d/%d", w.name, got.Cores, got.Edges, want.Cores, want.Edges)
		}
		if want.Edges < 10000 {
			t.Fatalf("%s: |R| = %d is too small to show per-result costs", w.name, want.Edges)
		}
		if sharded > unsharded+slack {
			t.Errorf("%s: warm sharded count allocates %.0f per query, unsharded %.0f (|R| = %d)",
				w.name, sharded, unsharded, want.Edges)
		}
	}
}
