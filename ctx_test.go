package temporalkcore_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	tkc "temporalkcore"
)

// bigGraph builds a graph whose full-range queries take long enough
// (hundreds of ms on any hardware this runs on) that mid-flight
// cancellation is observable; at k=3 the CoreTime phase dominates the
// runtime (~85%), so an early cancellation lands inside the settle loop.
func bigGraph(t testing.TB) *tkc.Graph {
	t.Helper()
	return reqGraph(t, 99, 900, 8000)
}

// TestCancelPreCancelled: an already-cancelled context returns ctx.Err()
// from every execution mode without doing any work.
func TestCancelPreCancelled(t *testing.T) {
	g := reqGraph(t, 10, 30, 300)
	lo, hi := g.TimeSpan()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := g.Query(2).Collect(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Collect = %v, want context.Canceled", err)
	}
	if _, err := g.Query(2).Count(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Count = %v, want context.Canceled", err)
	}
	p, err := g.Prepare(2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Query().Collect(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("prepared Collect = %v, want context.Canceled", err)
	}
	w, err := g.Watch(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query().Collect(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("watcher Collect = %v, want context.Canceled", err)
	}
	sg, err := tkc.ShardGraph(g, tkc.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	if _, err := sg.Query(2).Collect(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("sharded Collect = %v, want context.Canceled", err)
	}
	if _, err := sg.Query(2).Count(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("sharded Count = %v, want context.Canceled", err)
	}
	if _, _, err := g.Query(2).Snapshot(1).First(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("snapshot First = %v, want context.Canceled", err)
	}
	h, err := g.HistoricalIndex(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Query(2).First(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("historical First = %v, want context.Canceled", err)
	}

	// Seq yields exactly one element carrying the error.
	n := 0
	for _, err := range g.Query(2).Seq(ctx) {
		n++
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Seq err = %v, want context.Canceled", err)
		}
	}
	if n != 1 {
		t.Errorf("Seq yielded %d elements, want 1", n)
	}
}

// TestPrepareContextCancel: PrepareContext returns ctx.Err() for an
// already-cancelled context without building anything, accepts nil ctx as
// context.Background, and produces a handle equivalent to Prepare's when
// the context stays live.
func TestPrepareContextCancel(t *testing.T) {
	g := reqGraph(t, 10, 30, 300)
	lo, hi := g.TimeSpan()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.PrepareContext(ctx, 2, lo, hi); !errors.Is(err, context.Canceled) {
		t.Errorf("PrepareContext(cancelled) = %v, want context.Canceled", err)
	}

	p, err := g.PrepareContext(nil, 2, lo, hi)
	if err != nil {
		t.Fatalf("PrepareContext(nil ctx) = %v", err)
	}
	want, err := g.Prepare(2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if p.VCTSize() != want.VCTSize() || p.ECSSize() != want.ECSSize() {
		t.Errorf("PrepareContext tables differ from Prepare: VCT %d/%d, ECS %d/%d",
			p.VCTSize(), want.VCTSize(), p.ECSSize(), want.ECSSize())
	}
}

// TestCancelMidCoreTime cancels a deliberately huge query while its
// CoreTime phase is settling and requires a prompt ctx.Err() return,
// bounded by the poll stride rather than the query size.
func TestCancelMidCoreTime(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := bigGraph(t)

	// Reference: the uncancelled query, also the warm-up for scratch pools.
	began := time.Now()
	full, err := g.Query(3).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(began)
	if fullDur < 20*time.Millisecond {
		t.Skipf("full query too fast to observe cancellation (%v)", fullDur)
	}

	// Cancel at ~5% of the full duration: the query is then still deep in
	// the CoreTime phase (it dominates the runtime here).
	ctx, cancel := context.WithTimeout(context.Background(), fullDur/20)
	defer cancel()
	began = time.Now()
	_, err = g.Query(3).Count(ctx)
	elapsed := time.Since(began)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled query returned %v (in %v), want context.DeadlineExceeded", err, elapsed)
	}
	if elapsed > fullDur/2 {
		t.Errorf("cancelled query took %v of a %v query; cancellation is not prompt", elapsed, fullDur)
	}
	_ = full
}

// TestCancelMidEnumeration cancels from inside the result loop after the
// first core: the engine must stop at its next poll and surface ctx.Err()
// as the final stream element.
func TestCancelMidEnumeration(t *testing.T) {
	g := reqGraph(t, 11, 60, 2000)
	sg, err := tkc.ShardGraph(g, tkc.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	for _, src := range []struct {
		name string
		q    tkc.Querier
	}{{"unsharded", g}, {"sharded", sg.Latest()}} {
		ctx, cancel := context.WithCancel(context.Background())
		var cores, errs int
		var lastErr error
		for _, err := range src.q.Query(2).Seq(ctx) {
			if err != nil {
				errs++
				lastErr = err
				continue
			}
			cores++
			cancel() // cancel mid-enumeration, keep ranging
		}
		cancel()
		if errs != 1 || !errors.Is(lastErr, context.Canceled) {
			t.Fatalf("%s stream after mid-enumeration cancel: %d cores, %d errs, last %v", src.name, cores, errs, lastErr)
		}
		// The enumeration polls every stride start times, so a handful of
		// cores may still arrive after the cancel — but not the full result.
		total, err := src.q.Query(2).Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if int64(cores) >= total.Cores {
			t.Errorf("%s: cancel did not stop the enumeration: %d of %d cores emitted", src.name, cores, total.Cores)
		}
	}
}

// TestCancelBatchPartial cancels a batch mid-flight: finished items keep
// results, unfinished ones report Cancelled with ctx.Err(), and at least
// one item must have been cut (partial delivery, not all-or-nothing).
// The serving cache is off, so every item pays the full query the deadline
// is timed from: a cached count skips the CoreTime phase and is cheap
// enough for all eight to finish inside it.
func TestCancelBatchPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := bigGraph(t)
	g.SetCacheOptions(tkc.CacheOptions{Disable: true})
	lo, hi := g.TimeSpan()

	reqs := make([]*tkc.Request, 8)
	for i := range reqs {
		reqs[i] = g.Query(2).Window(lo, hi).Project(tkc.ProjectCount)
	}
	// Time one query to place the cancellation inside the batch run.
	began := time.Now()
	if _, err := reqs[0].Count(context.Background()); err != nil {
		t.Fatal(err)
	}
	one := time.Since(began)

	ctx, cancel := context.WithTimeout(context.Background(), one+one/2)
	defer cancel()
	res := g.RunBatch(ctx, reqs, tkc.BatchOptions{Parallelism: 1})

	var done, cut int
	for i, r := range res {
		switch {
		case r.Err == nil:
			done++
		case r.Cancelled:
			cut++
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Errorf("item %d: cancelled with err %v", i, r.Err)
			}
		default:
			t.Errorf("item %d: unexpected error %v", i, r.Err)
		}
	}
	if done == 0 {
		t.Error("no batch item completed before the deadline")
	}
	if cut == 0 {
		t.Error("no batch item was cancelled; cancellation did not interrupt the batch")
	}
}

// TestCancelAllocSteady: repeatedly cancelled queries must not leak
// scratch state — the allocation count per cancelled run stays small and
// constant, proving pooled arenas are returned on the cancellation path.
func TestCancelAllocSteady(t *testing.T) {
	g := reqGraph(t, 12, 60, 2000)

	// Warm the pools.
	if _, err := g.Query(2).Count(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	preAllocs := testing.AllocsPerRun(50, func() {
		if _, err := g.Query(2).Count(cancelled); err == nil {
			t.Fatal("cancelled query succeeded")
		}
	})
	if preAllocs > 20 {
		t.Errorf("pre-cancelled query allocates %.0f per run; scratch reuse broken", preAllocs)
	}

	midAllocs := testing.AllocsPerRun(50, func() {
		ctx, cancelMid := context.WithCancel(context.Background())
		first := true
		for _, err := range g.Query(2).Project(tkc.ProjectCount).Seq(ctx) {
			if err == nil && first {
				first = false
				cancelMid()
			}
		}
		cancelMid()
	})
	if midAllocs > 200 {
		t.Errorf("mid-enumeration cancelled query allocates %.0f per run; scratch leaks on the cancel path", midAllocs)
	}
}

// TestCancelMidPatchRefresh cancels a watcher query whose stale view
// forces an incremental patch refresh (the dyn.Index.RefreshAt path): the
// cancellation must land inside vct.PatchScratchStop's settle loop and
// surface promptly as ctx.Err(), the watcher must stay serviceable, and
// an uncancelled retry must agree with a one-shot query.
func TestCancelMidPatchRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Two identical graph+watcher pairs: one times the uncancelled repair,
	// the other is cancelled mid-patch.
	mk := func() (*tkc.Graph, *tkc.Watcher, []tkc.Edge) {
		g := reqGraph(t, 99, 900, 8000)
		w, err := g.Watch(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A large time-ordered batch: the dirty suffix the repair patch
		// must re-settle.
		_, hi := g.TimeSpan()
		r := rand.New(rand.NewSource(17))
		batch := make([]tkc.Edge, 0, 6000)
		tme := hi
		for len(batch) < cap(batch) {
			u, v := int64(r.Intn(900)), int64(r.Intn(900))
			if u == v {
				continue
			}
			if r.Intn(3) == 0 {
				tme++
			}
			batch = append(batch, tkc.Edge{U: u, V: v, Time: tme})
		}
		return g, w, batch
	}

	gRef, wRef, batch := mk()
	if _, err := gRef.Append(batch...); err != nil { // direct append: watcher view now stale
		t.Fatal(err)
	}
	began := time.Now()
	if _, err := wRef.Query().Count(context.Background()); err != nil {
		t.Fatal(err)
	}
	repairDur := time.Since(began)
	if repairDur < 20*time.Millisecond {
		t.Skipf("repair too fast to observe cancellation (%v)", repairDur)
	}
	st := wRef.Stats()
	if st.Patches == 0 {
		t.Fatalf("reference repair did not use the patch path (stats %+v)", st)
	}

	gCut, wCut, batch2 := mk()
	if _, err := gCut.Append(batch2...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), repairDur/20)
	defer cancel()
	began = time.Now()
	_, err := wCut.Query().Count(ctx)
	elapsed := time.Since(began)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled mid-patch query returned %v (in %v), want context.DeadlineExceeded", err, elapsed)
	}
	if elapsed > repairDur/2 {
		t.Errorf("cancelled repair took %v of a %v repair; mid-patch cancellation is not prompt", elapsed, repairDur)
	}

	// The watcher survives the cancelled repair and converges on retry.
	got, err := wCut.Query().Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := gCut.TimeSpan()
	want, err := gCut.Query(3).Window(lo, hi).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores != want.Cores || got.Edges != want.Edges {
		t.Fatalf("post-cancel watcher cores=%d |R|=%d, one-shot cores=%d |R|=%d", got.Cores, got.Edges, want.Cores, want.Edges)
	}
}

// TestCancelMidHistoricalBuild cancels Graph.HistoricalIndex while its
// per-k settle loops run and requires a prompt ctx.Err() return; the
// cancelled build must leave the serving cache and patch oracle clean, so
// an uncancelled retry succeeds. Two identical graphs are used because a
// repeat call on the first would be a warm cache hit, not a build.
func TestCancelMidHistoricalBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gRef := bigGraph(t)
	lo, hi := gRef.TimeSpan()
	began := time.Now()
	if _, err := gRef.HistoricalIndex(context.Background(), lo, hi); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(began)
	if fullDur < 20*time.Millisecond {
		t.Skipf("full build too fast to observe cancellation (%v)", fullDur)
	}

	gCut := bigGraph(t)
	ctx, cancel := context.WithTimeout(context.Background(), fullDur/20)
	defer cancel()
	began = time.Now()
	_, err := gCut.HistoricalIndex(ctx, lo, hi)
	elapsed := time.Since(began)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled build returned %v (in %v), want context.DeadlineExceeded", err, elapsed)
	}
	if elapsed > fullDur/2 {
		t.Errorf("cancelled build took %v of a %v build; cancellation is not prompt", elapsed, fullDur)
	}

	h, err := gCut.HistoricalIndex(context.Background(), lo, hi)
	if err != nil {
		t.Fatalf("retry after cancelled build: %v", err)
	}
	if h.KMax() < 1 {
		t.Errorf("retry produced an empty index (KMax %d)", h.KMax())
	}
}
