package vct_test

import (
	"math/rand"
	"testing"

	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// randomStream generates a time-ordered random edge list and a cut index
// such that every edge after the cut has a time >= every edge before it.
func randomStream(r *rand.Rand) (prefix, suffix []tgraph.RawEdge) {
	n := 5 + r.Intn(25)
	m := 20 + r.Intn(200)
	var all []tgraph.RawEdge
	time := int64(1)
	for len(all) < m {
		if r.Intn(3) == 0 {
			time++
		}
		all = append(all, tgraph.RawEdge{
			U:    int64(r.Intn(n)),
			V:    int64(r.Intn(n)),
			Time: time,
		})
	}
	cutTime := 1 + int64(float64(time)*(0.5+0.4*r.Float64()))
	for _, e := range all {
		if e.Time <= cutTime {
			prefix = append(prefix, e)
		} else {
			suffix = append(suffix, e)
		}
	}
	return prefix, suffix
}

func indexesEqual(t *testing.T, g *tgraph.Graph, a, b *vct.Index) bool {
	t.Helper()
	if a.K != b.K || a.Range != b.Range || a.Size() != b.Size() {
		return false
	}
	for u := 0; u < g.NumVertices(); u++ {
		ea, eb := a.Entries(tgraph.VID(u)), b.Entries(tgraph.VID(u))
		if len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
	}
	return true
}

func ecsEqual(t *testing.T, a, b *vct.ECS) bool {
	t.Helper()
	alo, ahi := a.EdgeRange()
	blo, bhi := b.EdgeRange()
	if alo != blo || ahi != bhi || a.Size() != b.Size() {
		return false
	}
	for e := alo; e < ahi; e++ {
		wa, wb := a.Windows(e), b.Windows(e)
		if len(wa) != len(wb) {
			return false
		}
		for i := range wa {
			if wa[i] != wb[i] {
				return false
			}
		}
	}
	return true
}

// TestPatchMatchesBuild checks that patching a cached index across appends
// and window moves produces exactly the tables a from-scratch build does.
func TestPatchMatchesBuild(t *testing.T) {
	var scratch vct.Scratch
	patchedRuns := 0
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		prefix, suffix := randomStream(r)
		if len(prefix) == 0 || len(suffix) == 0 {
			continue
		}
		g, err := tgraph.FromRawEdges(prefix)
		if err != nil {
			continue
		}
		oldTMax := g.TMax()
		for _, k := range []int{2, 3} {
			// Cache built on the pre-append state over a random window —
			// sometimes ending BEFORE the pre-append frontier, so the
			// patch crosses the cached range end mid-loop (the dirty
			// time-suffix then starts strictly inside the window).
			ws := tgraph.TS(1 + r.Intn(int(oldTMax)))
			we := oldTMax - tgraph.TS(r.Intn(3))
			if we < ws {
				we = ws
			}
			wOld := tgraph.Window{Start: ws, End: we}
			cached, _, err := vct.Build(g, k, wOld)
			if err != nil {
				t.Fatalf("seed %d k %d: Build cached: %v", seed, k, err)
			}

			st, err := g.Append(suffix)
			if err != nil {
				t.Fatalf("seed %d: Append: %v", seed, err)
			}
			if st.Added == 0 {
				break
			}

			newTMax := g.TMax()
			windows := []tgraph.Window{
				{Start: ws, End: newTMax},                        // extended end
				{Start: ws + tgraph.TS(r.Intn(3)), End: newTMax}, // slide start too
				{Start: ws, End: oldTMax},                        // same end, dirty tail
			}
			for _, wNew := range windows {
				if !wNew.Valid() || wNew.End > newTMax {
					continue
				}
				wantIx, wantEcs, err := vct.Build(g, k, wNew)
				if err != nil {
					t.Fatalf("seed %d: Build want: %v", seed, err)
				}
				gotIx, gotEcs, patched, err := vct.PatchScratch(g, k, wNew, cached, st.FirstNewRank, &scratch)
				if err != nil {
					t.Fatalf("seed %d: Patch: %v", seed, err)
				}
				if patched {
					patchedRuns++
				}
				if !indexesEqual(t, g, gotIx, wantIx) {
					t.Fatalf("seed %d k %d w %v: patched VCT differs from built VCT (cached %v, dirtyFrom %d)",
						seed, k, wNew, wOld, st.FirstNewRank)
				}
				if !ecsEqual(t, gotEcs, wantEcs) {
					t.Fatalf("seed %d k %d w %v: patched ECS differs from built ECS", seed, k, wNew)
				}
			}
			// Rebuild the pre-append graph for the next k round.
			g, err = tgraph.FromRawEdges(prefix)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if patchedRuns == 0 {
		t.Fatal("no run exercised the patched path; the test is vacuous")
	}
}

// TestPatchCleanWindowMoves patches with no appends at all (dirtyFrom
// infinite): shrinking the end or sliding the start must still reproduce
// the scratch build exactly.
func TestPatchCleanWindowMoves(t *testing.T) {
	var scratch vct.Scratch
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		prefix, suffix := randomStream(r)
		g, err := tgraph.FromRawEdges(append(prefix, suffix...))
		if err != nil {
			continue
		}
		tmax := g.TMax()
		if tmax < 4 {
			continue
		}
		k := 2
		cached, _, err := vct.Build(g, k, tgraph.Window{Start: 1, End: tmax})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []tgraph.Window{
			{Start: 1, End: tmax - 1},
			{Start: 2, End: tmax},
			{Start: 1 + tmax/4, End: tmax - tmax/4},
		} {
			if !w.Valid() {
				continue
			}
			wantIx, wantEcs, err := vct.Build(g, k, w)
			if err != nil {
				t.Fatal(err)
			}
			gotIx, gotEcs, patched, err := vct.PatchScratch(g, k, w, cached, tgraph.InfTime, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if !patched {
				t.Fatalf("seed %d w %v: expected a patched build", seed, w)
			}
			if !indexesEqual(t, g, gotIx, wantIx) || !ecsEqual(t, gotEcs, wantEcs) {
				t.Fatalf("seed %d w %v: clean patch differs from build", seed, w)
			}
		}
	}
}

// TestPatchPartialRange extends query windows backwards past the cached
// range start — the case that used to force a full rebuild — and requires
// the partial-range patch to reproduce the scratch build exactly, both
// with and without appended dirty suffixes. Before each patch the shared
// Scratch serves a dense build, so the vertices the patch pins meet the
// working state (support counts included) that another build left behind.
func TestPatchPartialRange(t *testing.T) {
	var scratch vct.Scratch
	dense := denseGraph(rand.New(rand.NewSource(7)), 40, 3, 6)
	patchedRuns := 0
	for seed := int64(200); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		prefix, suffix := randomStream(r)
		if len(prefix) == 0 {
			continue
		}
		g, err := tgraph.FromRawEdges(prefix)
		if err != nil {
			continue
		}
		oldTMax := g.TMax()
		if oldTMax < 6 {
			continue
		}
		k := 2
		// Cache covers only a suffix of the eventual query window.
		cs := tgraph.TS(2 + r.Intn(int(oldTMax)/3))
		cached, _, err := vct.Build(g, k, tgraph.Window{Start: cs, End: oldTMax})
		if err != nil {
			t.Fatal(err)
		}
		dirtyFrom := tgraph.InfTime
		if len(suffix) > 0 && r.Intn(2) == 0 {
			st, err := g.Append(suffix)
			if err != nil {
				t.Fatal(err)
			}
			if st.Added > 0 {
				dirtyFrom = st.FirstNewRank
			}
		}
		for _, w := range []tgraph.Window{
			{Start: 1, End: g.TMax()},      // extend past the cached start
			{Start: cs - 1, End: g.TMax()}, // one step before it
			{Start: 1, End: oldTMax},       // old frontier end
			{Start: cs + 1, End: g.TMax()}, // still inside (regression guard)
		} {
			if !w.Valid() || w.End > g.TMax() {
				continue
			}
			wantIx, wantEcs, err := vct.Build(g, k, w)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := vct.BuildScratch(dense, k, dense.FullWindow(), &scratch); err != nil {
				t.Fatal(err)
			}
			gotIx, gotEcs, patched, err := vct.PatchScratch(g, k, w, cached, dirtyFrom, &scratch)
			if err != nil {
				t.Fatalf("seed %d w %v: %v", seed, w, err)
			}
			if patched && w.Start < cs {
				patchedRuns++
			}
			if !indexesEqual(t, g, gotIx, wantIx) || !ecsEqual(t, gotEcs, wantEcs) {
				t.Fatalf("seed %d w %v (cached [%d,%d], dirtyFrom %d, patched %v): partial-range patch differs from build",
					seed, w, cs, oldTMax, dirtyFrom, patched)
			}
		}
	}
	if patchedRuns == 0 {
		t.Fatal("no run exercised the partial-range patched path; the test is vacuous")
	}
}

// denseGraph links every pair of n vertices `times` times, at random
// times in [1, tmax].
func denseGraph(r *rand.Rand, n, times, tmax int) *tgraph.Graph {
	b := tgraph.Builder{KeepDuplicates: true}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for i := 0; i < times; i++ {
				b.Add(int64(u), int64(v), int64(1+r.Intn(tmax)))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestPatchFallsBack covers the conditions under which the cache is
// unusable and a full build must run.
func TestPatchFallsBack(t *testing.T) {
	g := tgraph.MustFromTriples(
		[3]int64{1, 2, 1}, [3]int64{2, 3, 2}, [3]int64{1, 3, 3}, [3]int64{2, 4, 4},
	)
	full := tgraph.Window{Start: 1, End: g.TMax()}
	cached, _, err := vct.Build(g, 2, full)
	if err != nil {
		t.Fatal(err)
	}
	var s vct.Scratch
	// Nil cache.
	if _, _, patched, err := vct.PatchScratch(g, 2, full, nil, 1, &s); err != nil || patched {
		t.Fatalf("nil cache: patched=%v err=%v", patched, err)
	}
	// Different k.
	if _, _, patched, err := vct.PatchScratch(g, 3, full, cached, tgraph.InfTime, &s); err != nil || patched {
		t.Fatalf("k mismatch: patched=%v err=%v", patched, err)
	}
	// Cached range starts after the requested window: the overlap is
	// still usable (partial-range mode), so this patches.
	late, _, err := vct.Build(g, 2, tgraph.Window{Start: 2, End: g.TMax()})
	if err != nil {
		t.Fatal(err)
	}
	wantIx, wantEcs, err := vct.Build(g, 2, full)
	if err != nil {
		t.Fatal(err)
	}
	gotIx, gotEcs, patched, err := vct.PatchScratch(g, 2, full, late, tgraph.InfTime, &s)
	if err != nil || !patched {
		t.Fatalf("late cache with clean overlap: patched=%v err=%v", patched, err)
	}
	if !indexesEqual(t, g, gotIx, wantIx) || !ecsEqual(t, gotEcs, wantEcs) {
		t.Fatal("late-cache patch differs from build")
	}
	// Late cache that is dirty from its very first covered start proves
	// nothing and must fall back.
	if _, _, patched, err := vct.PatchScratch(g, 2, full, late, 2, &s); err != nil || patched {
		t.Fatalf("late cache, no clean overlap: patched=%v err=%v", patched, err)
	}
	// Everything dirty.
	if _, _, patched, err := vct.PatchScratch(g, 2, full, cached, 1, &s); err != nil || patched {
		t.Fatalf("all dirty: patched=%v err=%v", patched, err)
	}
}

// TestPatchStop cancels a patch mid-settle: PatchScratchStop must return
// ErrStopped, leave the cached index intact, and leave the Scratch fully
// reusable for an immediately following (uncancelled) patch that matches a
// scratch build exactly.
func TestPatchStop(t *testing.T) {
	var scratch vct.Scratch
	stoppedRuns := 0
	for seed := int64(0); seed < 40 && stoppedRuns == 0; seed++ {
		r := rand.New(rand.NewSource(seed))
		prefix, suffix := randomStream(r)
		if len(prefix) == 0 || len(suffix) == 0 {
			continue
		}
		g, err := tgraph.FromRawEdges(prefix)
		if err != nil {
			continue
		}
		cached, _, err := vct.Build(g, 2, g.FullWindow())
		if err != nil {
			t.Fatal(err)
		}
		st, err := g.Append(suffix)
		if err != nil || st.Added == 0 {
			continue
		}
		w := g.FullWindow()

		// Fire the hook on its first poll: with a bounded stride the patch
		// must abandon promptly wherever it happens to be.
		_, _, _, err = vct.PatchScratchStop(g, 2, w, cached, st.FirstNewRank, &scratch, func() bool { return true })
		if err == nil {
			continue // patch finished before the first poll; try another seed
		}
		if err != vct.ErrStopped {
			t.Fatalf("seed %d: PatchScratchStop = %v, want ErrStopped", seed, err)
		}
		stoppedRuns++

		// The scratch and the cache must both still be good.
		wantIx, wantEcs, err := vct.Build(g, 2, w)
		if err != nil {
			t.Fatal(err)
		}
		gotIx, gotEcs, patched, err := vct.PatchScratchStop(g, 2, w, cached, st.FirstNewRank, &scratch, nil)
		if err != nil || !patched {
			t.Fatalf("seed %d: retry after stop: patched=%v err=%v", seed, patched, err)
		}
		if !indexesEqual(t, g, gotIx, wantIx) || !ecsEqual(t, gotEcs, wantEcs) {
			t.Fatalf("seed %d: patch after a stopped patch differs from build", seed)
		}
	}
	if stoppedRuns == 0 {
		t.Skip("no seed produced a patch long enough to observe the stop")
	}
}

// TestPatchStopFallback: the stop hook also covers the full-rebuild
// fallback (nil cache).
func TestPatchStopFallback(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	prefix, _ := randomStream(r)
	g, err := tgraph.FromRawEdges(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var s vct.Scratch
	_, _, patched, err := vct.PatchScratchStop(g, 2, g.FullWindow(), nil, 1, &s, func() bool { return true })
	if patched {
		t.Fatal("nil cache reported patched")
	}
	if err != nil && err != vct.ErrStopped {
		t.Fatalf("fallback stop: %v", err)
	}
}
