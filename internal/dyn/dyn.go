// Package dyn maintains time-range k-core query state over a growing
// temporal graph. Where package core answers one-shot queries against a
// frozen graph, dyn.Index follows a graph through tgraph.Append calls and
// window moves: each RefreshAt patches the CoreTime tables (VCT + ECS) for
// the dirty time-suffix via vct.PatchScratchStop instead of rebuilding
// them, which is what makes continuously ingesting workloads (fraud
// streams, contact traces) affordable.
//
// Concurrency. The single writer patches on the index's one Scratch,
// clones the result and publishes the clone as an immutable View with one
// atomic pointer store; any number of readers load the current View
// lock-free and enumerate it for as long as they hold it, however many
// refreshes happen meanwhile. No code writes a View's tables after they
// are published, so readers need no pin and no release: the garbage
// collector reclaims a View nothing references. The same clone becomes
// the serving-cache entry, so a refresh copies its tables once.
package dyn

import (
	"fmt"
	"sync/atomic"
	"time"

	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// View is one immutable generation of the maintained tables: the CoreTime
// index and edge core window skylines over window W, built against graph
// state G (the live graph for quiescent use, a frozen epoch under
// concurrent serving). Its tables are self-owned and never written after
// publication; a serving-cache entry may share them.
type View struct {
	G   *tgraph.Graph // graph state the tables were built against
	Ix  *vct.Index
	Ecs *vct.ECS
	W   tgraph.Window
	Seq int64 // G.MutSeq() when the tables were built

	seqTMax tgraph.TS // G.TMax() at build: the dirty watermark for the next patch
}

// Index is a dynamically maintained CoreTime view: one (k, window) whose
// tables follow the graph through appends. RefreshAt and SetCache are
// single-writer (one goroutine at a time, not concurrent with Append on the
// live graph); View is lock-free and safe from any goroutine.
type Index struct {
	k    int
	view atomic.Pointer[View]

	// s is the writer's patch arena. Published tables are clones of what
	// a patch leaves in it, so it is reused by every refresh.
	s vct.Scratch

	// cache, when non-nil, is the graph's serving cache: RefreshAt
	// consults it before patching (adopting a resident entry for the exact
	// target (epoch seq, k, window) without recomputing) and inserts the
	// published clone so other execution paths hit.
	cache *qcache.Cache

	stats Stats
}

// Stats counts how refreshes were served.
type Stats struct {
	Patches  int // incremental patched refreshes
	Rebuilds int // full scratch rebuilds, the initial build included
	Noops    int // refreshes that found the tables current
	// CacheAdopts counts refreshes served by adopting a serving-cache
	// entry for the exact target (epoch seq, k, window) — no patching, no
	// rebuilding, one cache lookup.
	CacheAdopts int

	// PatchTime and RebuildTime accumulate the wall time spent in each.
	PatchTime   time.Duration
	RebuildTime time.Duration
}

// New builds the initial tables for (k, w) on a pooled Scratch and
// publishes a self-owned copy of them.
func New(g *tgraph.Graph, k int, w tgraph.Window) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("dyn: nil graph")
	}
	d := &Index{k: k}
	began := time.Now()
	ix, ecs, err := vct.Build(g, k, w)
	if err != nil {
		return nil, err
	}
	d.view.Store(&View{G: g, Ix: ix, Ecs: ecs, W: w, Seq: g.MutSeq(), seqTMax: g.TMax()})
	d.stats.Rebuilds++
	d.stats.RebuildTime += time.Since(began)
	return d, nil
}

// SetCache attaches the graph's serving cache (nil detaches). Writer-side:
// call it before the index is shared with readers, not concurrently with
// RefreshAt.
func (d *Index) SetCache(c *qcache.Cache) { d.cache = c }

// RefreshAt re-targets the view to w against graph state at — the live
// graph, or a frozen epoch of it under concurrent serving, in which case
// the published View is bound to that epoch and readers never touch the
// mutable graph. The current tables serve as the patch oracle: appends
// dirty only ranks at or after the TMax recorded when they were built
// (appends are time-ordered), so everything older is reused verbatim.
//
// stop, when non-nil, cancels the patch (and its full-rebuild fallback)
// with a bounded poll stride: RefreshAt then returns vct.ErrStopped and
// the current View keeps serving unchanged.
//
// tkc:cancellable
func (d *Index) RefreshAt(at *tgraph.Graph, w tgraph.Window, stop func() bool) error {
	if !w.Valid() || w.End > at.TMax() {
		return fmt.Errorf("dyn: window [%d,%d] outside graph range [1,%d]", w.Start, w.End, at.TMax())
	}
	cur := d.view.Load()
	// Short-circuit on identical (epoch seq, window): the tables are a pure
	// function of that pair on an append-only graph, so a refresh targeting
	// the same state recomputes nothing — even when `at` is a different
	// *Graph value (a re-publish of an unchanged graph). The current View's
	// binding is only kept when that is safe for concurrent readers: either
	// it is the exact same graph value, or it is already an immutable
	// epoch. A View still bound to the mutable live graph must rebind to
	// the frozen `at`, so it falls through.
	if w == cur.W && at.MutSeq() == cur.Seq && (at == cur.G || cur.G.Frozen()) {
		d.stats.Noops++
		return nil
	}
	key := qcache.Key{Seq: at.MutSeq(), K: d.k, W: w, Algo: qcache.AlgoEnum}
	if d.cache != nil {
		if ent, ok := d.cache.Probe(key); ok {
			d.view.Store(&View{G: at, Ix: ent.Ix, Ecs: ent.Ecs, W: w, Seq: at.MutSeq(), seqTMax: at.TMax()})
			d.stats.CacheAdopts++
			return nil
		}
	}
	dirtyFrom := tgraph.InfTime
	if at.MutSeq() != cur.Seq {
		dirtyFrom = cur.seqTMax
	}
	began := time.Now()
	ix, ecs, patched, err := vct.PatchScratchStop(at, d.k, w, cur.Ix, dirtyFrom, &d.s, stop)
	if err != nil {
		return err
	}
	ix, ecs = ix.Clone(), ecs.Clone()
	took := time.Since(began)
	d.view.Store(&View{G: at, Ix: ix, Ecs: ecs, W: w, Seq: at.MutSeq(), seqTMax: at.TMax()})
	if patched {
		d.stats.Patches++
		d.stats.PatchTime += took
	} else {
		d.stats.Rebuilds++
		d.stats.RebuildTime += took
	}
	if d.cache != nil && d.cache.Admits(ix.MemBytes()+ecs.MemBytes()) {
		// One-shot, batch and prepared queries on this epoch's window skip
		// their CoreTime phase. Tables too large to ever be admitted are
		// not offered, so they count no Oversize.
		d.cache.Add(key, qcache.NewEntry(ix, ecs, took))
	}
	return nil
}

// View returns the current View. It is one atomic load, safe from any
// goroutine concurrently with RefreshAt, and the View stays valid for as
// long as the caller holds it.
//
// tkc:frozensource
func (d *Index) View() *View { return d.view.Load() }

// StaleAt reports whether graph state at has been appended to since the
// last refresh, or the tables cover a different window than w.
func (d *Index) StaleAt(at *tgraph.Graph, w tgraph.Window) bool {
	cur := d.view.Load()
	return w != cur.W || at.MutSeq() != cur.Seq
}

// Stats returns the refresh counters.
func (d *Index) Stats() Stats { return d.stats }
