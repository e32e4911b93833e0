package temporalkcore_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tkc "temporalkcore"
)

// rawTimes returns the distinct timestamps of edges, ascending.
func rawTimes(edges []tkc.Edge) []int64 {
	ts := make([]int64, 0, len(edges))
	for _, e := range edges {
		ts = append(ts, e.Time)
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

// spanWindows returns n distinct raw windows that each cover span of the
// timestamps ts, starting at evenly spread timestamps. Windows of
// different spans never share a compressed window, so they never share a
// cache entry.
func spanWindows(ts []int64, span, n int) [][2]int64 {
	var out [][2]int64
	for i := 0; i < n; i++ {
		a := i * (len(ts) - span) / n
		out = append(out, [2]int64{ts[a], ts[a+span-1]})
	}
	return out
}

// sweepToBuy counts windows on g until one is answered by the query that
// builds the full range, and returns how many came before it. It fails
// the test when none does.
func sweepToBuy(t *testing.T, g *tkc.Graph, k int, wins [][2]int64) int {
	t.Helper()
	for i, w := range wins {
		qs, err := g.Query(k).Window(w[0], w[1]).Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if qs.Cut {
			if qs.CoreTime <= 0 {
				t.Fatalf("window %d bought the full range in %v", i, qs.CoreTime)
			}
			return i
		}
		if qs.CacheHit {
			t.Fatalf("window %d of a sweep of distinct windows hit the cache", i)
		}
	}
	t.Fatalf("%d distinct windows never bought the full range: %+v", len(wins), g.CacheStats())
	return 0
}

// sameSizes compares what a cut reports with the cache-disabled answer.
func sameSizes(t *testing.T, what string, got, want tkc.QueryStats) {
	t.Helper()
	if got.Cores != want.Cores || got.Edges != want.Edges || got.VCTSize != want.VCTSize || got.ECSSize != want.ECSSize {
		t.Fatalf("%s: cut %d cores, |R| %d, |VCT| %d, |ECS| %d; build %d, %d, %d, %d",
			what, got.Cores, got.Edges, got.VCTSize, got.ECSSize, want.Cores, want.Edges, want.VCTSize, want.ECSSize)
	}
	if !got.Cut || got.CacheHit || got.CacheShared {
		t.Fatalf("%s: cut %v, cache hit %v, shared %v; want a cut and no hit", what, got.Cut, got.CacheHit, got.CacheShared)
	}
}

// TestCutMatchesBuild sweeps distinct windows until the full range is
// bought, then asks fresh windows every request shape. Each is cut from
// the full-range entry, and each must answer, cores and stats alike,
// what a cache-disabled graph's build of the window answers.
func TestCutMatchesBuild(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const k = 3
			all := seededEdges(t, 700, seed)
			g, err := tkc.NewGraph(all)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := tkc.NewGraph(all)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetCacheOptions(tkc.CacheOptions{Disable: true})
			ts := rawTimes(all)
			sweepToBuy(t, g, k, spanWindows(ts, len(ts)*45/100, 60))
			before := g.CacheStats()

			asks := 0
			for _, w := range spanWindows(ts, len(ts)*30/100, 6) {
				q := func(g *tkc.Graph) *tkc.Request { return g.Query(k).Window(w[0], w[1]) }
				for _, n := range []int{0, 1, 2, 3} {
					got, err := q(g).EarlyStop(n).Count(ctx)
					if err != nil {
						t.Fatal(err)
					}
					want, err := q(ref).EarlyStop(n).Count(ctx)
					if err != nil {
						t.Fatal(err)
					}
					sameSizes(t, fmt.Sprintf("%v EarlyStop(%d) count", w, n), got, want)
					asks++
				}
				for _, p := range []tkc.Projection{tkc.ProjectEdges, tkc.ProjectVertices} {
					var gs, ws tkc.QueryStats
					got, err := q(g).Project(p).Stats(&gs).Collect(ctx)
					if err != nil {
						t.Fatal(err)
					}
					want, err := q(ref).Project(p).Stats(&ws).Collect(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v projection %d: cut collected %d cores, build %d, or they differ", w, p, len(got), len(want))
					}
					sameSizes(t, fmt.Sprintf("%v projection %d", w, p), gs, ws)
					asks++
				}
				seq := func(g *tkc.Graph, qs *tkc.QueryStats) []tkc.Core {
					var out []tkc.Core
					for c, err := range q(g).Stats(qs).Seq(ctx) {
						if err != nil {
							t.Fatal(err)
						}
						if out = append(out, c); len(out) == 2 {
							break
						}
					}
					return out
				}
				var gs, ws tkc.QueryStats
				if got, want := seq(g, &gs), seq(ref, &ws); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v Seq broken after 2: cut %+v, build %+v", w, got, want)
				}
				sameSizes(t, fmt.Sprintf("%v Seq broken after 2", w), gs, ws)
				asks++
			}
			after := g.CacheStats()
			if after.Cuts-before.Cuts != int64(asks) || after.Hits != before.Hits || after.Misses != before.Misses || after.Entries != before.Entries {
				t.Fatalf("%d cut asks moved the cache from %+v to %+v; want only Cuts to grow by %d", asks, before, after, asks)
			}
		})
	}
}

// TestCutAcrossPublish runs two readers across the buy of a full range
// while an appender publishes epochs, each of which retires the previous
// epoch's entries and charges. Windows end below the first epoch's
// frontier, so every epoch must answer them as the cache-disabled head
// graph does.
func TestCutAcrossPublish(t *testing.T) {
	const k = 3
	ctx := context.Background()
	all := seededEdges(t, 700, 4)
	head, tail := all[:len(all)*9/10], all[len(all)*9/10:]
	g, err := tkc.NewGraph(head)
	if err != nil {
		t.Fatal(err)
	}
	g.Publish()
	ref, err := tkc.NewGraph(head)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetCacheOptions(tkc.CacheOptions{Disable: true})
	ts := rawTimes(head)
	wins := spanWindows(ts, len(ts)*40/100, 40)
	want := make([]tkc.QueryStats, len(wins))
	for i, w := range wins {
		if want[i], err = ref.Query(k).Window(w[0], w[1]).Count(ctx); err != nil {
			t.Fatal(err)
		}
	}

	var cuts atomic.Int64
	bought := make(chan struct{})
	var once sync.Once
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 2; round++ {
				for i, w := range wins {
					got, err := g.Latest().Query(k).Window(w[0], w[1]).Count(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					if got.Cores != want[i].Cores || got.Edges != want[i].Edges || got.VCTSize != want[i].VCTSize || got.ECSSize != want[i].ECSSize {
						t.Errorf("window %d: %+v, want %+v", i, got, want[i])
						return
					}
					if got.Cut {
						cuts.Add(1)
						once.Do(func() { close(bought) })
					}
				}
			}
		}()
	}
	// The appender starts once a reader has seen a cut, so the first
	// epoch's buy always happens, and later epochs may buy again.
	done := make(chan struct{})
	go func() {
		readers.Wait()
		close(done)
	}()
	select {
	case <-bought:
	case <-done:
	}
	for i := 0; i < len(tail); i += 10 {
		if _, err := g.Append(tail[i:min(i+10, len(tail))]...); err != nil {
			t.Fatal(err)
		}
		g.Publish()
	}
	<-done
	if cs := g.CacheStats(); cuts.Load() == 0 || cs.Retired == 0 || cs.Cuts != cuts.Load() {
		t.Fatalf("%d cuts seen, cache %+v: want cuts counted and entries retired", cuts.Load(), cs)
	}
}

// TestCutNeverBuysForHotSet asks serve-hot's hot-set size, 12 windows of
// 10% of the timestamps, three times each: their builds never pay for
// the full range, so every repeat is an exact hit and nothing is cut.
func TestCutNeverBuysForHotSet(t *testing.T) {
	const k = 3
	all := seededEdges(t, 700, 6)
	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	ts := rawTimes(all)
	for round := 0; round < 3; round++ {
		for _, w := range spanWindows(ts, len(ts)/10, 12) {
			qs, err := g.Query(k).Window(w[0], w[1]).EarlyStop(1).Count(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if qs.Cut || qs.CacheHit != (round > 0) {
				t.Fatalf("round %d %v: cut %v, cache hit %v", round, w, qs.Cut, qs.CacheHit)
			}
		}
	}
	if cs := g.CacheStats(); cs.Cuts != 0 || cs.Misses != 12 || cs.Hits != 24 {
		t.Fatalf("hot set: %+v, want 12 misses, 24 hits and no cut", cs)
	}
}

// TestCutDeadlineShorterThanPrediction replays, on a fresh graph, the
// sweep that reaches the buy. Its next query has a deadline of half the
// CoreTime the sweep's builds took. That is under the full range's
// predicted build time, the builds' time scaled by the price over the
// charges paid, which the last build overshoots by far less than 2x. So
// the query builds its own window and answers instead of buying. A query
// with no deadline then buys.
func TestCutDeadlineShorterThanPrediction(t *testing.T) {
	const k = 3
	all := seededEdges(t, 700, 7)
	ts := rawTimes(all)
	wins := spanWindows(ts, len(ts)*45/100, 60)
	probe, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	n := sweepToBuy(t, probe, k, wins)

	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	var took time.Duration
	for _, w := range wins[:n] {
		qs, err := g.Query(k).Window(w[0], w[1]).Count(context.Background())
		if err != nil || qs.Cut || qs.CacheHit {
			t.Fatalf("replayed sweep: %+v, %v", qs, err)
		}
		took += qs.CoreTime
	}
	ctx, cancel := context.WithTimeout(context.Background(), took/2)
	defer cancel()
	w := wins[n]
	qs, err := g.Query(k).Window(w[0], w[1]).Count(ctx)
	if err != nil {
		t.Fatalf("the query with a deadline of %v failed: %v", took/2, err)
	}
	if qs.Cut || qs.CacheHit || qs.CoreTime <= 0 {
		t.Fatalf("the query with a deadline of %v: %+v; want its own build", took/2, qs)
	}
	w = wins[n+1]
	if qs, err = g.Query(k).Window(w[0], w[1]).Count(context.Background()); err != nil || !qs.Cut {
		t.Fatalf("the next query without a deadline: %+v, %v; want the buy", qs, err)
	}
}

// cancelOnSecondDone is a context that cancels itself on the second call
// to Done. A request asks once when it starts, so a build it starts next
// is stopped at its first poll.
type cancelOnSecondDone struct {
	context.Context
	calls atomic.Int32
	done  chan struct{}
}

func (c *cancelOnSecondDone) Done() <-chan struct{} {
	if c.calls.Add(1) == 2 {
		close(c.done)
	}
	return c.done
}

func (c *cancelOnSecondDone) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCutCancelledBuy cancels the query that buys the full range during
// the build. It returns the cancellation, nothing is cached for the full
// range, and the next query buys it and answers exactly.
func TestCutCancelledBuy(t *testing.T) {
	const k = 3
	all := seededEdges(t, 700, 8)
	ts := rawTimes(all)
	wins := spanWindows(ts, len(ts)*45/100, 60)
	probe, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	n := sweepToBuy(t, probe, k, wins)

	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetCacheOptions(tkc.CacheOptions{Disable: true})
	for _, w := range wins[:n] {
		if _, err := g.Query(k).Window(w[0], w[1]).Count(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	before := g.CacheStats()
	w := wins[n]
	ctx := &cancelOnSecondDone{Context: context.Background(), done: make(chan struct{})}
	if _, err := g.Query(k).Window(w[0], w[1]).Count(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled buy returned %v", err)
	}
	if cs := g.CacheStats(); cs.Misses != before.Misses+1 || cs.Entries != before.Entries || cs.Cuts != 0 {
		t.Fatalf("the cancelled buy left %+v (before %+v): want one more miss and nothing cached", cs, before)
	}
	got, err := g.Query(k).Window(w[0], w[1]).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(k).Window(w[0], w[1]).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSizes(t, "after a cancelled buy", got, want)
	if got.CoreTime <= 0 {
		t.Fatalf("the query after a cancelled buy did not buy: %+v", got)
	}
}

// TestCutSurvivesRestart buys the full range on a durable graph, takes a
// snapshot, which spills the cache's entries to the warm file, and
// reopens the directory. The full-range entry comes back through the warm
// file's decoders, so a fresh window is cut from it at once, and answers
// as a cache-disabled build does.
func TestCutSurvivesRestart(t *testing.T) {
	const k = 3
	ctx := context.Background()
	all := seededEdges(t, 700, 9)
	ts := rawTimes(all)
	dir := t.TempDir()
	d, err := tkc.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bootstrap(all); err != nil {
		t.Fatal(err)
	}
	sweepToBuy(t, d.Graph(), k, spanWindows(ts, len(ts)*45/100, 60))
	if _, err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = tkc.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ref, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetCacheOptions(tkc.CacheOptions{Disable: true})
	w := spanWindows(ts, len(ts)*30/100, 1)[0]
	got, err := d.Graph().Query(k).Window(w[0], w[1]).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(k).Window(w[0], w[1]).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSizes(t, "the first window after a restart", got, want)
	if got.CoreTime != 0 {
		t.Fatalf("the first window after a restart built for %v; want a cut of the warm full range", got.CoreTime)
	}
}
