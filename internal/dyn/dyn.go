// Package dyn maintains time-range k-core query state over a growing
// temporal graph. Where package core answers one-shot queries against a
// frozen graph, dyn.Index follows a graph through tgraph.Append calls and
// window moves: each Refresh patches the cached CoreTime tables (VCT +
// ECS) for the dirty time-suffix via vct.PatchScratch instead of
// rebuilding them, which is what makes continuously ingesting workloads
// (fraud streams, contact traces) affordable.
//
// Concurrency. The tables live in refcounted generations (Views): the
// single writer Refreshes — building the next generation in a spare arena
// while the current one keeps serving — and publishes it atomically; any
// number of readers Acquire the current View lock-free and enumerate it
// for as long as they hold the pin, regardless of how many refreshes
// happen meanwhile. A retired View's arena returns to the index's free
// list when its last reader drains, so steady-state serving ping-pongs
// between a bounded set of arenas instead of allocating per refresh.
package dyn

import (
	"fmt"
	"sync"
	"time"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/epoch"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// View is one immutable generation of the maintained tables: the CoreTime
// index and edge core window skylines over window W, built against graph
// state G (the live graph for quiescent use, a frozen epoch under
// concurrent serving). A View acquired from Index.Acquire stays valid —
// tables unmodified, arena unreclaimed — until its release fn is called.
type View struct {
	G   *tgraph.Graph // graph state the tables were built against
	Ix  *vct.Index
	Ecs *vct.ECS
	W   tgraph.Window
	Seq int64 // G.MutSeq() when the tables were built

	seqTMax tgraph.TS // G.TMax() at build: the dirty watermark for the next patch
	s       *vct.Scratch
}

// Index is a dynamically maintained CoreTime view: one (k, window) whose
// tables follow the graph through appends. Refresh and the other write
// methods are single-writer (one goroutine at a time, not concurrent with
// Append on the live graph); Acquire is lock-free and safe from any
// goroutine.
type Index struct {
	g *tgraph.Graph
	k int

	guard epoch.Guard[*View]

	// cache, when non-nil, is the graph's serving cache: Refresh consults
	// it before patching (adopting a resident entry for the exact target
	// (epoch seq, k, window) without recomputing) and inserts a self-owned
	// clone of freshly patched tables so other execution paths hit. When a
	// retired View drains — its epoch has no reader left — entries of
	// older epochs are retired with it.
	cache *qcache.Cache

	mu   sync.Mutex     // guards free (drains release arenas on reader goroutines)
	free []*vct.Scratch // tkc:guardedby mu

	enumScratch enum.Scratch

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

// New builds the initial tables for (k, w).
func New(g *tgraph.Graph, k int, w tgraph.Window) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("dyn: nil graph")
	}
	d := &Index{g: g, k: k}
	began := time.Now()
	// The first tables are built on a pooled Scratch and copied out, so
	// the index holds no arena until a refresh takes one from d.spare.
	ix, ecs, err := vct.Build(g, k, w)
	if err != nil {
		return nil, err
	}
	d.publish(&View{G: g, Ix: ix, Ecs: ecs, W: w, Seq: g.MutSeq(), seqTMax: g.TMax()})
	d.stats.Rebuilds++
	d.stats.RebuildTime += time.Since(began)
	return d, nil
}

// SetCache attaches the graph's serving cache (nil detaches). Writer-side:
// call it before the index is shared with readers, not concurrently with
// Refresh.
func (d *Index) SetCache(c *qcache.Cache) { d.cache = c }

func (d *Index) publish(v *View) {
	d.guard.Publish(v, func(old *View) {
		if old.s != nil { // the first and cache-adopted views own no arena
			d.mu.Lock()
			d.free = append(d.free, old.s)
			d.mu.Unlock()
		}
		if d.cache != nil {
			// The drained epoch has no watcher reader left; entries of
			// strictly older epochs can only serve long-held snapshots,
			// which stay correct (they rebuild on miss).
			d.cache.RetireBelow(old.Seq)
		}
	})
}

// spare returns an arena no live or pinned View references.
func (d *Index) spare() *vct.Scratch {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		return s
	}
	return new(vct.Scratch)
}

// Refresh re-targets the view to w against the live graph, reflecting
// every append since the last refresh. See RefreshAt for the general form.
func (d *Index) Refresh(w tgraph.Window) error { return d.RefreshAt(d.g, w, nil) }

// RefreshAt re-targets the view to w against graph state at — the live
// graph, or a frozen epoch of it under concurrent serving, in which case
// the published View is bound to that epoch and readers never touch the
// mutable graph. The cached tables serve as the patch oracle: appends
// dirty only ranks at or after the TMax recorded when they were built
// (appends are time-ordered), so everything older is reused verbatim.
//
// stop, when non-nil, cancels the patch (and its full-rebuild fallback)
// with a bounded poll stride: RefreshAt then returns vct.ErrStopped, the
// current View keeps serving unchanged, and the spare arena returns to the
// free list — cancelled refreshes leak nothing.
//
// tkc:cancellable
func (d *Index) RefreshAt(at *tgraph.Graph, w tgraph.Window, stop func() bool) error {
	if at == nil {
		at = d.g
	}
	if !w.Valid() || w.End > at.TMax() {
		return fmt.Errorf("dyn: window [%d,%d] outside graph range [1,%d]", w.Start, w.End, at.TMax())
	}
	cur, _ := d.guard.Current()
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
			d.publish(&View{G: at, Ix: ent.Ix, Ecs: ent.Ecs, W: w, Seq: at.MutSeq(), seqTMax: at.TMax()})
			d.stats.CacheAdopts++
			return nil
		}
	}
	dirtyFrom := tgraph.InfTime
	if at.MutSeq() != cur.Seq {
		dirtyFrom = cur.seqTMax
	}
	began := time.Now()
	s := d.spare()
	ix, ecs, patched, err := vct.PatchScratchStop(at, d.k, w, cur.Ix, dirtyFrom, s, stop)
	if err != nil {
		d.mu.Lock()
		d.free = append(d.free, s)
		d.mu.Unlock()
		return err
	}
	d.publish(&View{G: at, Ix: ix, Ecs: ecs, W: w, Seq: at.MutSeq(), seqTMax: at.TMax(), s: s})
	took := time.Since(began)
	if patched {
		d.stats.Patches++
		d.stats.PatchTime += took
	} else {
		d.stats.Rebuilds++
		d.stats.RebuildTime += took
	}
	if d.cache != nil && d.cache.Admits(ix.MemBytes()+ecs.MemBytes()) {
		// Insert a self-owned clone (the View's tables are arena-backed and
		// the arena is recycled when the View drains) so one-shot, batch and
		// prepared queries on this epoch's window skip their CoreTime phase.
		// Tables too large to ever be admitted skip the clone entirely.
		d.cache.Add(key, qcache.NewEntry(ix.Clone(), ecs.Clone(), took))
	}
	return nil
}

// Acquire pins the current View for a reader and returns it with the
// release closure the reader must call exactly once when done. It is
// lock-free and safe from any goroutine, concurrently with Refresh.
//
// tkc:frozensource
// tkc:acquires
func (d *Index) Acquire() (*View, func()) {
	v, release, _ := d.guard.Acquire() // New always publishes; ok cannot be false
	return v, release
}

// K returns the core parameter.
func (d *Index) K() int { return d.k }

// current returns the live View without pinning (writer-side only).
func (d *Index) current() *View {
	v, _ := d.guard.Current()
	return v
}

// Window returns the compressed window the tables currently cover.
func (d *Index) Window() tgraph.Window { return d.current().W }

// VCT returns the live vertex core time index. Writer-side: it is only
// guaranteed valid until the next Refresh (readers pin a View instead).
func (d *Index) VCT() *vct.Index { return d.current().Ix }

// ECS returns the live edge core window skylines; same contract as VCT.
func (d *Index) ECS() *vct.ECS { return d.current().Ecs }

// Stale reports whether the live graph has been appended to since the last
// refresh, or the tables cover a different window than w.
func (d *Index) Stale(w tgraph.Window) bool { return d.StaleAt(d.g, w) }

// StaleAt is Stale against an explicit graph state (a frozen epoch under
// concurrent serving).
func (d *Index) StaleAt(at *tgraph.Graph, w tgraph.Window) bool {
	cur := d.current()
	return w != cur.W || at.MutSeq() != cur.Seq
}

// Enumerate streams every distinct temporal k-core of the current window
// to sink, reusing the index's enumeration scratch (writer-side; readers
// Acquire a View and run package enum with their own scratch). It returns
// false when the sink stopped early.
func (d *Index) Enumerate(sink enum.Sink) bool {
	done, _ := d.EnumerateStop(sink, nil)
	return done
}

// EnumerateStop is Enumerate with a cancellation hook polled with a
// bounded stride; see enum.EnumerateStop.
//
// tkc:cancellable
func (d *Index) EnumerateStop(sink enum.Sink, stop func() bool) (done, cancelled bool) {
	v := d.current()
	return enum.EnumerateStop(v.G, v.Ecs, sink, &d.enumScratch, stop)
}

// Stats returns the refresh counters.
func (d *Index) Stats() Stats { return d.stats }
