package dyn_test

import (
	"math/rand"
	"testing"

	"temporalkcore/internal/dyn"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
)

// TestRefreshNoopOnRepublishedEpoch pins the stale-repair short-circuit:
// a refresh targeting the same (epoch seq, window) as the current view
// must not recompute anything just because the target is a different
// *Graph value (a re-publish of an unchanged graph).
func TestRefreshNoopOnRepublishedEpoch(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, err := tgraph.FromRawEdges(randomEdges(r, 12, 120))
	if err != nil {
		t.Fatal(err)
	}
	d, err := dyn.New(g, 2, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}

	// First frozen target: the view is still bound to the mutable graph,
	// so it must rebind (one patch/rebuild) even though seq and window are
	// unchanged — a view published for concurrent readers must never point
	// at mutable state.
	fz1 := g.Freeze()
	if err := d.RefreshAt(fz1, fz1.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if before.Noops != 0 {
		t.Fatalf("rebinding to the first frozen epoch was a noop: %+v", before)
	}

	// Re-publishing the unchanged graph must short-circuit: same seq, same
	// window, already epoch-bound.
	fz2 := g.Freeze()
	if err := d.RefreshAt(fz2, fz2.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	after := d.Stats()
	if after.Noops != before.Noops+1 {
		t.Fatalf("re-published identical epoch did not short-circuit: %+v -> %+v", before, after)
	}
	if after.Patches != before.Patches || after.Rebuilds != before.Rebuilds {
		t.Fatalf("re-published identical epoch recomputed tables: %+v -> %+v", before, after)
	}

	// The view must still answer correctly after the noop.
	if got, want := countView(d.View()), countQuery(t, g, 2, g.FullWindow()); got != want {
		t.Fatalf("after noop: %s != %s", got, want)
	}
}

// TestRefreshAdoptsCacheEntry pins the serving-cache integration: when the
// cache holds tables for the exact refresh target, the refresh adopts them
// without patching, and freshly patched tables are inserted for others.
func TestRefreshAdoptsCacheEntry(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	edges := randomEdges(r, 12, 160)
	cut := len(edges) * 3 / 4
	g, err := tgraph.FromRawEdges(edges[:cut])
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	d, err := dyn.New(g, k, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}
	c := qcache.New(1 << 20)
	d.SetCache(c)

	// First refresh after an append: a miss that patches and inserts.
	if _, err := g.Append(edges[cut:]); err != nil {
		t.Fatal(err)
	}
	fz := g.Freeze()
	if err := d.RefreshAt(fz, fz.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.CacheAdopts != 0 {
		t.Fatalf("first refresh adopted from an empty cache: %+v", st)
	}
	key := qcache.Key{Seq: fz.MutSeq(), K: k, W: fz.FullWindow()}
	ent, ok := c.Probe(key)
	if !ok {
		t.Fatal("refresh did not insert its patched tables into the cache")
	}

	// A second index targeting the same epoch adopts the entry instead of
	// patching, and answers identically.
	dAdopt, err := dyn.New(fz, k, tgraph.Window{Start: 1, End: fz.TMax() / 2})
	if err != nil {
		t.Fatal(err)
	}
	dAdopt.SetCache(c)
	if err := dAdopt.RefreshAt(fz, fz.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	if st := dAdopt.Stats(); st.CacheAdopts != 1 {
		t.Fatalf("refresh with a resident entry did not adopt: %+v", st)
	}
	if got, want := countView(dAdopt.View()), countQuery(t, fz, k, fz.FullWindow()); got != want {
		t.Fatalf("adopted view answers differently: %s != %s", got, want)
	}
	if ent.Ix.Size() == 0 && ent.Ecs.Size() == 0 {
		t.Fatal("cached entry is empty")
	}

	// The adopted entry's tables serve as the next patch's oracle: append
	// again and refresh; the result must still match a one-shot query.
	if _, err := g.Append([]tgraph.RawEdge{{U: 1, V: 2, Time: edges[len(edges)-1].Time + 1}}); err != nil {
		t.Fatal(err)
	}
	fz2 := g.Freeze()
	if err := dAdopt.RefreshAt(fz2, fz2.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	if got, want := countView(dAdopt.View()), countQuery(t, fz2, k, fz2.FullWindow()); got != want {
		t.Fatalf("patch from adopted oracle diverged: %s != %s", got, want)
	}
}
