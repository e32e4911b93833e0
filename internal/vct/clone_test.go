package vct_test

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"temporalkcore/internal/gen"
	"temporalkcore/internal/paperex"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestBuildStopMatchesBuild pins the self-owned stoppable build: with a
// quiet stop hook it must produce exactly Build's output, and with a
// firing hook it must return ErrStopped.
func TestBuildStopMatchesBuild(t *testing.T) {
	g := paperex.Graph()
	w := g.FullWindow()
	ix, ecs, err := vct.Build(g, paperex.K, w)
	if err != nil {
		t.Fatal(err)
	}
	ix2, ecs2, err := vct.BuildStop(g, paperex.K, w, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Size() != ix.Size() || ecs2.Size() != ecs.Size() {
		t.Fatalf("BuildStop sizes (%d,%d) != Build sizes (%d,%d)", ix2.Size(), ecs2.Size(), ix.Size(), ecs.Size())
	}
	for u := 0; u < g.NumVertices(); u++ {
		if !reflect.DeepEqual(ix2.Entries(tgraph.VID(u)), ix.Entries(tgraph.VID(u))) {
			t.Fatalf("vertex %d entries differ", u)
		}
	}

	// The stop hook is polled at least every 2048 settle pops and every 64
	// start-time transitions, so on this tiny example it is never called.
	// A replica window of several hundred start times must reach it, even
	// though a window-local settle pops only a few vertices per start time.
	rep, err := gen.ReplicaByCode("CM")
	if err != nil {
		t.Fatal(err)
	}
	rg, err := rep.Generate(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rw := tgraph.Window{Start: 201, End: 700}
	s := &vct.Scratch{}
	// Both parts of a split build poll the hook, from two goroutines.
	var polls atomic.Int32
	if _, _, err := vct.BuildScratchStop(rg, 5, rw, s, func() bool { polls.Add(1); return false }); err != nil {
		t.Fatal(err)
	}
	if want := int(rw.End-rw.Start) / 64; int(polls.Load()) < want {
		t.Fatalf("a build over %d start times polled its stop hook %d times, want >= %d", rw.End-rw.Start+1, polls.Load(), want)
	}
	if _, _, err := vct.BuildScratchStop(rg, 5, rw, s, func() bool { return true }); !errors.Is(err, vct.ErrStopped) {
		t.Fatalf("a stop hook that fires on its first call returned %v, want ErrStopped", err)
	}

	// Validation still applies.
	if _, _, err := vct.BuildStop(g, 0, w, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestCloneIsDeepAndSized pins Clone (deep, independent copies) and the
// MemBytes estimators the serving cache budgets with.
func TestCloneIsDeepAndSized(t *testing.T) {
	g, ix, ecs := buildPaper(t)

	cix, cecs := ix.Clone(), ecs.Clone()
	if cix.K != ix.K || cix.Range != ix.Range || cix.Size() != ix.Size() {
		t.Fatalf("index clone header differs: %+v vs %+v", cix, ix)
	}
	lo, hi := ecs.EdgeRange()
	clo, chi := cecs.EdgeRange()
	if clo != lo || chi != hi || cecs.Size() != ecs.Size() || cecs.K != ecs.K || cecs.Range != ecs.Range {
		t.Fatal("skyline clone header differs")
	}
	for u := 0; u < g.NumVertices(); u++ {
		got, want := cix.Entries(tgraph.VID(u)), ix.Entries(tgraph.VID(u))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d: clone entries %v != %v", u, got, want)
		}
		// Deep: the clone's backing array is its own.
		if len(got) > 0 && &got[0] == &want[0] {
			t.Fatal("index clone shares backing memory")
		}
	}
	for e := lo; e < hi; e++ {
		got, want := cecs.Windows(e), ecs.Windows(e)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("edge %d: clone windows %v != %v", e, got, want)
		}
		if len(got) > 0 && &got[0] == &want[0] {
			t.Fatal("skyline clone shares backing memory")
		}
	}

	if ix.MemBytes() <= 0 || ecs.MemBytes() <= 0 {
		t.Fatalf("MemBytes: ix=%d ecs=%d, want > 0", ix.MemBytes(), ecs.MemBytes())
	}
	if cix.MemBytes() != ix.MemBytes() || cecs.MemBytes() != ecs.MemBytes() {
		t.Fatal("clone MemBytes differ from the original")
	}
}
