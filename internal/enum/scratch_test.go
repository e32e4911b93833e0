package enum_test

import (
	"math/rand"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/paperex"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestEnumerateWithReuse drives one enum.Scratch through skylines of many
// shapes — different graphs and k, edge ranges that shrink and grow from
// one run to the next — and checks each enumeration's raw emission stream
// (core order and edge order, unsorted) against a run on a fresh Scratch.
// Stale slot, calendar or batch state from an earlier, larger enumeration
// must never leak into a later one.
func TestEnumerateWithReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	graphs := []*tgraph.Graph{paperex.Graph(), randomGraph(r, 14, 160, 24)}
	s := &enum.Scratch{}
	prev, shrank, grew := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		g := graphs[trial%len(graphs)]
		k := 1 + r.Intn(4)
		tmax := int(g.TMax())
		a := 1 + r.Intn(tmax)
		b := 1 + r.Intn(tmax)
		if a > b {
			a, b = b, a
		}
		w := tgraph.Window{Start: tgraph.TS(a), End: tgraph.TS(b)}
		_, ecs, err := vct.Build(g, k, w)
		if err != nil {
			t.Fatalf("vct.Build(k=%d, %v): %v", k, w, err)
		}
		lo, hi := ecs.EdgeRange()
		m := int(hi - lo)
		switch {
		case trial > 0 && m < prev:
			shrank++
		case trial > 0 && m > prev:
			grew++
		}
		prev = m
		var got, want rawSink
		if !enum.EnumerateWith(g, ecs, &got, s) {
			t.Fatal("EnumerateWith stopped early")
		}
		if !enum.EnumerateWith(g, ecs, &want, &enum.Scratch{}) {
			t.Fatal("fresh enumeration stopped early")
		}
		if !sameStream(got.cores, want.cores) {
			t.Fatalf("trial %d k=%d %v: scratch reuse changed the emission stream\n got %+v\nwant %+v", trial, k, w, got.cores, want.cores)
		}
	}
	if shrank == 0 || grew == 0 {
		t.Fatalf("edge ranges shrank %d and grew %d times; the test needs both", shrank, grew)
	}
}

// TestEnumerateWithEarlyStop checks that a sink stopping the enumeration
// leaves the scratch reusable.
func TestEnumerateWithEarlyStop(t *testing.T) {
	g := paperex.Graph()
	_, ecs, err := vct.Build(g, paperex.K, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}
	s := &enum.Scratch{}
	var all rawSink
	enum.EnumerateWith(g, ecs, &all, s)
	lim := enum.LimitSink{Inner: &enum.CountSink{}, Max: 1}
	if enum.EnumerateWith(g, ecs, &lim, s) {
		t.Fatal("limited enumeration was not stopped")
	}
	var again rawSink
	if !enum.EnumerateWith(g, ecs, &again, s) {
		t.Fatal("re-enumeration stopped early")
	}
	if !sameStream(all.cores, again.cores) {
		t.Fatal("scratch poisoned by early-stopped enumeration")
	}
}
