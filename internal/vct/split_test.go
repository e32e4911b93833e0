package vct_test

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"temporalkcore/internal/gen"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestSplitMatchesSerial forces the start-time split at every mid in
// (Ts, Te] on random graphs, with duplicate edges on and off, k = 1..6 and
// trimmed windows, and compares every Index entry and ECS window with the
// serial build.
func TestSplitMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	iters := 500
	if testing.Short() {
		iters = 100
	}
	s := &vct.Scratch{}
	splits := 0
	for it := 0; it < iters; it++ {
		n := 5 + r.Intn(10)
		g := randomGraph(r, n, 10+r.Intn(8*n), 3+r.Intn(14))
		k := 1 + r.Intn(6)
		ts := tgraph.TS(1 + r.Intn(int(g.TMax())/3+1))
		te := g.TMax() - tgraph.TS(r.Intn(int(g.TMax())/3+1))
		if te <= ts {
			ts, te = 1, g.TMax()
		}
		w := tgraph.Window{Start: ts, End: te}
		want, wantECS, err := vct.Build(g, k, w)
		if err != nil {
			t.Fatal(err)
		}
		for mid := w.Start + 1; mid <= w.End; mid++ {
			ix, ecs, err := vct.BuildSplit(g, k, w, s, nil, mid)
			if err != nil {
				t.Fatalf("split at %d: %v", mid, err)
			}
			sameIndex(t, g, want, ix)
			sameECS(t, wantECS, ecs)
			splits++
		}
	}
	t.Logf("%d split builds", splits)
	if splits < 2000 {
		t.Fatalf("only %d split builds ran", splits)
	}
}

// TestSplitStops checks that a window large enough to split stays serial
// under GOMAXPROCS 1, and that a stop hook firing in either part of a
// split build, or in both, returns ErrStopped and leaves the Scratch
// reusable.
func TestSplitStops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, w := splitReplica(t)
	mid := vct.SplitAt(g, w)
	runtime.GOMAXPROCS(1)
	if m := vct.SplitAt(g, w); m != 0 {
		t.Fatalf("window %v splits at %d under GOMAXPROCS 1", w, m)
	}
	want, wantECS, err := vct.Build(g, 5, w)
	if err != nil {
		t.Fatal(err)
	}
	s := &vct.Scratch{}
	for _, m := range []tgraph.TS{w.Start + 1, mid, w.End} {
		if _, _, err := vct.BuildSplit(g, 5, w, s, func() bool { return true }, m); !errors.Is(err, vct.ErrStopped) {
			t.Fatalf("split at %d with a firing hook returned %v, want ErrStopped", m, err)
		}
		ix, ecs, err := vct.BuildSplit(g, 5, w, s, func() bool { return false }, m)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, g, want, ix)
		sameECS(t, wantECS, ecs)
	}
}

// TestSplitPanicReachesCaller checks that a stop hook panicking on a
// window large enough to split reaches the caller of BuildStop and
// BuildScratchStop as it does on a serial build, including a panic raised
// on the helper's goroutine only, and that both Scratch values stay
// usable afterwards.
func TestSplitPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, w := splitReplica(t)
	want, wantECS, err := vct.Build(g, 5, w)
	if err != nil {
		t.Fatal(err)
	}
	boom := func() bool { panic("stop hook") }
	s := &vct.Scratch{}
	for name, build := range map[string]func(){
		"BuildStop":        func() { vct.BuildStop(g, 5, w, boom) },
		"BuildScratchStop": func() { vct.BuildScratchStop(g, 5, w, s, boom) },
		// The hook panics only on the helper's goroutine, so the panic
		// must cross to the caller's.
		"helper": func() {
			vct.BuildSplit(g, 5, w, s, func() bool {
				if inHelper() {
					panic("stop hook")
				}
				return false
			}, w.Start+1)
		},
	} {
		if got := panicOf(build); got != "stop hook" {
			t.Fatalf("%s: recovered %v, want the stop hook's panic", name, got)
		}
		ix, ecs, err := vct.BuildScratchStop(g, 5, w, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, g, want, ix)
		sameECS(t, wantECS, ecs)
	}
}

func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// inHelper reports whether the calling goroutine is the helper of a split
// build.
func inHelper() bool {
	buf := make([]byte, 4096)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "vct.(*helper).build")
}

// splitReplica is a CM replica window of several hundred start times,
// above the size a build splits at.
func splitReplica(t *testing.T) (*tgraph.Graph, tgraph.Window) {
	t.Helper()
	rep, err := gen.ReplicaByCode("CM")
	if err != nil {
		t.Fatal(err)
	}
	g, err := rep.Generate(6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tgraph.Window{Start: g.Edge(1000).T, End: g.Edge(4000).T}
	if lo, hi := g.EdgesIn(w); vct.SplitAt(g, w) == 0 {
		t.Fatalf("window %v holds %d edges, too few to split", w, hi-lo)
	}
	return g, w
}
