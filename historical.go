package temporalkcore

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"temporalkcore/internal/core"
	"temporalkcore/internal/phc"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
)

// histScratch pools the vertex/edge id buffers of historical index
// queries, so the serving path allocates only the projected output (and
// nothing at all for ProjectCount).
type histScratch struct {
	vids []tgraph.VID
	eids []tgraph.EID
}

var histPool = sync.Pool{New: func() any { return new(histScratch) }}

// runHistorical executes a Using(index)/HistoricalIndex.Query request: the
// single snapshot k-core over the window, answered from the PHC index and
// emitted as one Core (or none when empty). It reads only the epoch pinned
// inside the index, never the live graph, so it is safe concurrently with
// appends.
func (r *Request) runHistorical(ctx context.Context, qs *QueryStats, proj Projection, fn func(Core) bool) error {
	h := r.hix
	w, err := h.window(r.start, r.end)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	began := time.Now()
	s := histPool.Get().(*histScratch)
	if proj == ProjectVertices {
		s.vids = h.ix.CoreVertices(h.at, r.k, w, s.vids[:0])
		emitSnapshot(qs, proj, fn, h.at, w, s.vids, nil)
	} else {
		s.eids = h.ix.CoreEdges(h.at, r.k, w, s.eids[:0])
		emitSnapshot(qs, proj, fn, h.at, w, nil, s.eids)
	}
	histPool.Put(s) // emitSnapshot copies into the output Core; the ids are free again
	qs.EnumTime = time.Since(began)
	return nil
}

// HistoricalIndex answers historical k-core queries — "which vertices form
// the k-core of the snapshot over [ts, te]?" — for every k at once, after
// a one-off construction. It reproduces the PHC index of Yu et al. (VLDB
// 2021), the foundation the enumeration algorithm of this library builds
// on.
//
// Memory model: an index is pinned to the graph epoch it was built from —
// an immutable frozen state, captured at construction time — and every
// query reads only that epoch and the index labels, never the live graph.
// The index is immutable and safe for concurrent use from any number of
// goroutines, including while a writer goroutine keeps appending to the
// live graph (the same guarantee Snapshot gives; see Freeze). Appended
// edges never become visible through an existing index: obtain a fresh one
// with Graph.HistoricalIndex, which patches incrementally instead of
// rebuilding.
type HistoricalIndex struct {
	g  *Graph        // graph lineage: serving cache + patch oracle live on its hub
	at *tgraph.Graph // pinned immutable epoch the index answers for
	ix *phc.Index
}

// HistoricalIndex returns the PHC index of the graph's current epoch over
// the raw time range [start, end], ready to answer snapshot k-core queries
// for every k at once. This is the serving path of the historical tier:
//
//   - Indexes are served through the graph's epoch-keyed cache under
//     (epoch seq, indexed range): a repeat call on the same graph state is
//     a warm hit costing one lookup, concurrent identical calls share one
//     build (singleflight), and entries of retired epochs are dropped when
//     the serving layer drains them.
//   - After an Append, the next call maintains the index incrementally: it
//     re-settles only the dirty time-suffix past the previous index's
//     frontier (falling back to a full build when the dirty region
//     dominates the window), so append + requery costs a fraction of a
//     from-scratch construction.
//   - The build is cancellable: ctx is polled inside every per-k settle
//     loop with a bounded stride, and a cancelled build returns ctx.Err()
//     leaving the cache and oracle untouched.
//
// Like Freeze, it must be called from the writer goroutine (or while no
// Append runs) because pinning reads the mutable graph; the returned index
// may then be queried from any goroutine, concurrently with further
// appends. Calling it on a Snapshot pins that snapshot's epoch.
//
// tkc:allow-background: a nil ctx means context.Background
func (g *Graph) HistoricalIndex(ctx context.Context, start, end int64) (*HistoricalIndex, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	at := g.pinned()
	w, err := windowOf(at, start, end)
	if err != nil {
		return nil, err
	}
	if c := g.cache(); c != nil {
		key := qcache.Key{Seq: at.MutSeq(), W: w, Algo: qcache.AlgoPHC}
		if !c.Uncacheable(key) {
			ent, _, err := c.GetOrBuild(ctx, key, func() (*qcache.Entry, error) {
				began := time.Now()
				ix, err := g.buildOrPatchPHC(ctx, at, w)
				if err != nil {
					return nil, err
				}
				return qcache.NewPHCEntry(ix, time.Since(began)), nil
			})
			if err != nil {
				return nil, err
			}
			return &HistoricalIndex{g: g, at: at, ix: ent.Phc}, nil
		}
	}
	ix, err := g.buildOrPatchPHC(ctx, at, w)
	if err != nil {
		return nil, err
	}
	return &HistoricalIndex{g: g, at: at, ix: ix}, nil
}

// pinned returns an immutable view of the graph's current state: the graph
// itself when it is already frozen (Snapshot receivers), the published
// latest epoch or the memoised last pin when either matches the current
// state (no copying), otherwise a fresh Freeze recorded as the next memo.
// Writer-side, like Freeze.
//
// tkc:frozensource
func (g *Graph) pinned() *tgraph.Graph {
	if g.g.Frozen() {
		return g.g
	}
	if ep := g.hub.latest.Load(); ep != nil && ep.g.MutSeq() == g.g.MutSeq() {
		return ep.g
	}
	if p := g.hub.lastPin.Load(); p != nil && p.MutSeq() == g.g.MutSeq() {
		return p
	}
	p := g.g.Freeze()
	g.hub.lastPin.Store(p)
	return p
}

// buildOrPatchPHC produces the index for (at, w), patching from the
// lineage's most recent index when its fingerprint proves it a state
// prefix, and records the result as the next patch oracle. vct.ErrStopped
// is translated to ctx's error.
func (g *Graph) buildOrPatchPHC(ctx context.Context, at *tgraph.Graph, w tgraph.Window) (*phc.Index, error) {
	stop := core.StopFromCtx(ctx)
	var ix *phc.Index
	var err error
	if last := g.hub.lastHist.Load(); last != nil && last.Fp.MutSeq <= at.MutSeq() {
		if last.Fp.MutSeq == at.MutSeq() && last.Range == w {
			return last, nil // exact state and range: the oracle is the answer
		}
		// Appends are time-ordered, so every snapshot ending before the
		// previous index's rank frontier is untouched — that frontier is
		// the dirty watermark bounding the re-settle region.
		ix, _, err = last.PatchStop(at, w, tgraph.TS(last.Fp.TMax), stop)
	} else {
		ix, err = phc.BuildStop(at, w, stop)
	}
	if err != nil {
		return nil, core.StopErr(ctx, err)
	}
	g.hub.lastHist.Store(ix)
	return ix, nil
}

// KMax returns the largest k for which any historical k-core exists in the
// indexed range.
func (h *HistoricalIndex) KMax() int { return h.ix.KMax }

// Size returns the total number of index labels (the |PHC| of [13]).
func (h *HistoricalIndex) Size() int { return h.ix.Size() }

// Seq returns the mutation sequence number of the epoch the index is
// pinned to (see Snapshot.Seq): the exact graph state its answers hold
// for.
func (h *HistoricalIndex) Seq() int64 { return h.ix.Fp.MutSeq }

// window converts a raw query range, requiring it inside the index range.
// Resolution uses the pinned epoch, so ranks never shift under the query
// even while the live graph appends.
func (h *HistoricalIndex) window(start, end int64) (tgraph.Window, error) {
	w, err := windowOf(h.at, start, end)
	if err != nil {
		return tgraph.Window{}, err
	}
	if !h.ix.Range.Contains(w) {
		return tgraph.Window{}, fmt.Errorf("temporalkcore: query window outside indexed range")
	}
	return w, nil
}

// Contains reports whether a vertex label is in the k-core of the snapshot
// over [start, end].
func (h *HistoricalIndex) Contains(label int64, k int, start, end int64) (bool, error) {
	v, ok := h.at.VertexOf(label)
	if !ok {
		return false, fmt.Errorf("temporalkcore: unknown vertex %d", label)
	}
	w, err := h.window(start, end)
	if err != nil {
		return false, err
	}
	return h.ix.InCore(v, k, w), nil
}

// CoreNumber returns the largest k such that the vertex is in the k-core
// of the snapshot over [start, end] (0 when it is isolated there).
func (h *HistoricalIndex) CoreNumber(label int64, start, end int64) (int, error) {
	v, ok := h.at.VertexOf(label)
	if !ok {
		return 0, fmt.Errorf("temporalkcore: unknown vertex %d", label)
	}
	w, err := h.window(start, end)
	if err != nil {
		return 0, err
	}
	return h.ix.CoreNumber(v, w), nil
}

// Save writes the index in a compact binary form readable by
// Graph.LoadHistoricalIndex, including a fingerprint of the epoch it was
// built from. The graph itself is not stored.
func (h *HistoricalIndex) Save(w io.Writer) error { return h.ix.Encode(w) }

// LoadHistoricalIndex reads an index written by Save. The stored graph
// fingerprint (vertex/edge counts, rank ceiling, mutation sequence number)
// must match the graph's current state exactly, so an index cannot be
// loaded against a different graph — or a different epoch of the same
// graph — and silently answer wrongly. A graph rebuilt after a restart
// matches when it reaches the saved state the same way (the same one-shot
// construction, or the same append replay); re-derive the index with
// Graph.HistoricalIndex otherwise.
func (g *Graph) LoadHistoricalIndex(r io.Reader) (*HistoricalIndex, error) {
	ix, err := phc.Decode(r)
	if err != nil {
		return nil, err
	}
	at := g.pinned()
	if !ix.Fp.Matches(at) {
		got := phc.FingerprintOf(at)
		return nil, fmt.Errorf("temporalkcore: index fingerprint (%d vertices, %d edges, %d ranks, seq %d) does not match the graph (%d, %d, %d, seq %d) — index built from a different graph or epoch",
			ix.Fp.Vertices, ix.Fp.Edges, ix.Fp.TMax, ix.Fp.MutSeq,
			got.Vertices, got.Edges, got.TMax, got.MutSeq)
	}
	return &HistoricalIndex{g: g, at: at, ix: ix}, nil
}
