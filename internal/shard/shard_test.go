package shard_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/shard"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

func randomGraph(r *rand.Rand, n, m, tmax int) *tgraph.Graph {
	var b tgraph.Builder
	b.KeepDuplicates = false
	for i := 0; i < m; i++ {
		u := r.Intn(n)
		v := r.Intn(n)
		for v == u {
			v = r.Intn(n)
		}
		b.Add(int64(u), int64(v), int64(1+r.Intn(tmax)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// directoryFor slices g's rank axis into parts sealed shards plus a
// frontier, cutting at evenly spaced ranks.
func directoryFor(t *testing.T, g *tgraph.Graph, parts int) *shard.Directory {
	t.Helper()
	var cuts []shard.Cut
	tmax := int(g.TMax())
	for i := 1; i < parts; i++ {
		r := tgraph.TS(i * tmax / parts)
		if r < 1 || r >= g.TMax() {
			continue
		}
		if len(cuts) > 0 && r <= cuts[len(cuts)-1].End {
			continue
		}
		cuts = append(cuts, shard.Cut{RawEnd: g.RawTime(r), End: r, Seq: g.MutSeq()})
	}
	d, err := shard.NewDirectory(cuts)
	if err != nil {
		t.Fatalf("NewDirectory: %v", err)
	}
	return d
}

type emitted struct {
	win  tgraph.Window
	eids []tgraph.EID
}

func collectOracle(t *testing.T, g *tgraph.Graph, k int, w tgraph.Window) []emitted {
	t.Helper()
	_, ecs, err := vct.Build(g, k, w)
	if err != nil {
		t.Fatalf("vct.Build: %v", err)
	}
	var out []emitted
	sink := sinkFunc(func(win tgraph.Window, eids []tgraph.EID) bool {
		cp := make([]tgraph.EID, len(eids))
		copy(cp, eids)
		out = append(out, emitted{win, cp})
		return true
	})
	if done, _ := enum.EnumerateStop(g, ecs, sink, enum.GetScratch(), nil); !done {
		t.Fatal("oracle enumeration stopped early")
	}
	return out
}

type sinkFunc func(tgraph.Window, []tgraph.EID) bool

func (f sinkFunc) Emit(w tgraph.Window, eids []tgraph.EID) bool { return f(w, eids) }

func TestDirectorySpans(t *testing.T) {
	d, err := shard.NewDirectory([]shard.Cut{
		{RawEnd: 100, End: 10, Seq: 1},
		{RawEnd: 200, End: 20, Seq: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumShards() != 3 || d.NumSealed() != 2 {
		t.Fatalf("NumShards=%d NumSealed=%d", d.NumShards(), d.NumSealed())
	}

	cases := []struct {
		w    tgraph.Window
		want []shard.Span
	}{
		{ // spanning everything
			w: tgraph.Window{Start: 1, End: 30},
			want: []shard.Span{
				{Shard: 0, Sealed: true, Task: tgraph.Window{Start: 1, End: 30}, LastStart: 10, Local: tgraph.Window{Start: 1, End: 10}, Seq: 1},
				{Shard: 1, Sealed: true, Task: tgraph.Window{Start: 11, End: 30}, LastStart: 20, Local: tgraph.Window{Start: 11, End: 20}, Seq: 2},
				{Shard: 2, Task: tgraph.Window{Start: 21, End: 30}, LastStart: 30},
			},
		},
		{ // interior of one sealed shard
			w: tgraph.Window{Start: 12, End: 18},
			want: []shard.Span{
				{Shard: 1, Sealed: true, Task: tgraph.Window{Start: 12, End: 18}, LastStart: 18, Local: tgraph.Window{Start: 11, End: 20}, Seq: 2},
			},
		},
		{ // frontier only
			w: tgraph.Window{Start: 25, End: 30},
			want: []shard.Span{
				{Shard: 2, Task: tgraph.Window{Start: 25, End: 30}, LastStart: 30},
			},
		},
		{ // crossing the first cut only
			w: tgraph.Window{Start: 5, End: 15},
			want: []shard.Span{
				{Shard: 0, Sealed: true, Task: tgraph.Window{Start: 5, End: 15}, LastStart: 10, Local: tgraph.Window{Start: 1, End: 10}, Seq: 1},
				{Shard: 1, Sealed: true, Task: tgraph.Window{Start: 11, End: 15}, LastStart: 15, Local: tgraph.Window{Start: 11, End: 20}, Seq: 2},
			},
		},
	}
	for _, tc := range cases {
		got := d.Spans(tc.w)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Spans(%v):\n got %+v\nwant %+v", tc.w, got, tc.want)
		}
	}
}

func TestDirectorySealValidation(t *testing.T) {
	d, err := shard.NewDirectory([]shard.Cut{{RawEnd: 100, End: 10, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(shard.Cut{RawEnd: 50, End: 5, Seq: 2}); err == nil {
		t.Fatal("descending seal accepted")
	}
	d2, err := d.Seal(shard.Cut{RawEnd: 200, End: 20, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSealed() != 1 || d2.NumSealed() != 2 {
		t.Fatal("Seal mutated the receiver or failed to extend")
	}
}

// query runs a window query the way the public executor does: each span's
// tables from Resolve, counted into c and enumerated over the span's slice
// of the start axis, in shard order and in this goroutine. hits counts the
// spans served from resident or shared tables.
func query(ctx context.Context, g *tgraph.Graph, w tgraph.Window, d *shard.Directory, cache *qcache.Cache, c *shard.Counters, emit sinkFunc) (hits int, err error) {
	vs := vct.GetScratch()
	defer vct.PutScratch(vs)
	es := enum.GetScratch()
	defer enum.PutScratch(es)
	stop := func() bool { return ctx.Err() != nil }
	for _, sp := range d.Spans(w) {
		t, err := shard.Resolve(ctx, g, 2, cache, sp, vs, stop)
		if err != nil {
			return hits, err
		}
		c.Add(sp.Shard, t)
		if t.Outcome != qcache.Built {
			hits++
		}
		done, cancelled := enum.EnumerateRangeStop(g, t.Ecs, emit, es, sp.LastStart, stop)
		if cancelled {
			return hits, ctx.Err()
		}
		if !done {
			break
		}
	}
	return hits, nil
}

// TestQueryMatchesOracle locks the scatter-gather contract at the package
// level: span output concatenated in shard order is identical to the
// unsharded enumeration, for windows inside one shard, spanning cuts, and
// covering everything — with and without a cache, warm and cold.
func TestQueryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 16, 260, 24)
		d := directoryFor(t, g, 2+trial%3)
		var counters shard.Counters
		caches := []*qcache.Cache{nil, qcache.New(1 << 20)}
		for _, cache := range caches {
			for pass := 0; pass < 2; pass++ { // second pass hits the warm path
				for _, w := range []tgraph.Window{
					{Start: 1, End: g.TMax()},
					{Start: 2, End: g.TMax() - 1},
					{Start: g.TMax() / 3, End: 2 * g.TMax() / 3},
				} {
					if w.Start < 1 || w.End < w.Start {
						continue
					}
					want := collectOracle(t, g, 2, w)
					var got []emitted
					_, err := query(context.Background(), g, w, d, cache, &counters, func(win tgraph.Window, eids []tgraph.EID) bool {
						cp := make([]tgraph.EID, len(eids))
						copy(cp, eids)
						got = append(got, emitted{win, cp})
						return true
					})
					if err != nil {
						t.Fatalf("query: %v", err)
					}
					if len(got) != len(want) {
						t.Fatalf("trial %d w=%v: %d cores, want %d", trial, w, len(got), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("trial %d w=%v core %d:\n got %+v\nwant %+v", trial, w, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestQueryWarmCacheHits asserts the second identical query serves every
// span from cached tables, and that the counters saw every shard.
func TestQueryWarmCacheHits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 14, 200, 20)
	d := directoryFor(t, g, 3)
	var counters shard.Counters
	cache := qcache.New(1 << 20)
	w := tgraph.Window{Start: 1, End: g.TMax()}
	run := func() int {
		hits, err := query(context.Background(), g, w, d, cache, &counters,
			func(tgraph.Window, []tgraph.EID) bool { return true })
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		return hits
	}
	run()
	if hits, spans := run(), len(d.Spans(w)); hits != spans {
		t.Fatalf("warm query: %d/%d spans hit the cache", hits, spans)
	}
	for i := 0; i < d.NumShards(); i++ {
		c := counters.Get(i)
		if c.Tasks != 2 || c.CacheHits != 1 {
			t.Fatalf("shard %d counters %+v, want 2 spans with 1 cache hit", i, c)
		}
	}
	if c := counters.Get(d.NumShards()); c != (shard.Counts{}) {
		t.Fatalf("counters of a shard that does not exist: %+v", c)
	}
}

// TestQueryEarlyStop verifies the consumer can stop mid-stream without an
// error.
func TestQueryEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 14, 220, 20)
	d := directoryFor(t, g, 3)
	w := tgraph.Window{Start: 1, End: g.TMax()}
	want := collectOracle(t, g, 2, w)
	if len(want) < 3 {
		t.Skip("graph too sparse for an early-stop test")
	}
	seen := 0
	_, err := query(context.Background(), g, w, d, nil, new(shard.Counters),
		func(win tgraph.Window, eids []tgraph.EID) bool {
			seen++
			return seen < 2
		})
	if err != nil {
		t.Fatalf("early-stopped query returned error: %v", err)
	}
	if seen != 2 {
		t.Fatalf("sink saw %d cores, want 2", seen)
	}
}

// TestQueryCancelledContext verifies a cancelled context surfaces as its
// own error.
func TestQueryCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 12, 160, 16)
	d := directoryFor(t, g, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cache := range []*qcache.Cache{nil, qcache.New(1 << 20)} {
		_, err := query(ctx, g, tgraph.Window{Start: 1, End: g.TMax()}, d, cache, new(shard.Counters),
			func(tgraph.Window, []tgraph.EID) bool { return true })
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
}
