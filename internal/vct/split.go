package vct

import (
	"runtime"

	"temporalkcore/internal/spare"
	"temporalkcore/internal/tgraph"
)

// minSplitEdges is the smallest window, in edges, whose build splits at a
// start time. Below it the helper's start-up and the fixed point it
// settles from scratch at its first start time cost about as much as the
// share of the sweep it takes over (see "Start-time split" in the package
// documentation for the measurement).
const minSplitEdges = 1000

// splitAt picks the start time a build of w splits at, or 0 for a serial
// build: at GOMAXPROCS 1, where the two parts could not run at once, and
// when w is too small to split. The first part sweeps from w.Start over
// the whole window while the helper also settles its first fixed point
// from scratch, so the split point sits at 2/5 of the window's edges,
// where the two parts took equally long on the paper-scale CM replica's
// Figure 6 windows.
func splitAt(g *tgraph.Graph, w tgraph.Window) tgraph.TS {
	lo, hi := g.EdgesIn(w)
	if runtime.GOMAXPROCS(0) < 2 || hi-lo < minSplitEdges || w.Start == w.End {
		return 0
	}
	mid := g.Edge(lo + tgraph.EID(int(hi-lo)*2/5)).T
	return min(max(mid, w.Start+1), w.End)
}

// buildSplit runs the sweep of (g, k, w) on s, serially when mid is 0 and
// otherwise split at start time mid, w.Start < mid <= w.End; the records,
// and so the outputs, are the serial build's either way.
func buildSplit(g *tgraph.Graph, k int, w tgraph.Window, s *Scratch, stop func() bool, mid tgraph.TS) builder {
	b := newBuilder(g, k, w, s)
	b.stop = stop
	if mid == 0 {
		b.run(w.End)
	} else {
		b.split(mid)
	}
	return b
}

// buildScratch is BuildScratchStop on a validated (g, k, w), split at mid
// as buildSplit is.
func buildScratch(g *tgraph.Graph, k int, w tgraph.Window, s *Scratch, stop func() bool, mid tgraph.TS) (*Index, *ECS, error) {
	b := buildSplit(g, k, w, s, stop, mid)
	if b.stopped {
		return nil, nil, ErrStopped
	}
	b.indexInto(&s.ix)
	b.skylinesInto(&s.ecs)
	return &s.ix, &s.ecs, nil
}

// split sweeps the start times [w.Start, mid−1] on b's goroutine while a
// helper runs the ordinary build of [mid, w.End] on its own Scratch, then
// stitches the helper's records after b's. The core times at start ts are
// the least fixed point over [ts, w.End] alone, so the helper's records
// are the serial build's from mid on. Both parts end before either
// Scratch is reused, on every path, and a panic in the helper is raised
// again here.
func (b *builder) split(mid tgraph.TS) {
	if b.half == nil {
		b.half = &helper{}
		b.half.Bind(b.half.build)
	}
	h := b.half
	h.g, h.k, h.w, h.stop = b.g, b.k, tgraph.Window{Start: mid, End: b.w.End}, b.stop
	h.Start()
	defer h.Join()
	b.run(mid - 1)
	h.Wait()
	if b.stopped || h.halted {
		b.stopped = true
		return
	}
	b.stitch(&h.Scratch, mid)
}

// helper is the later part of a split build: the Scratch it builds on,
// the build it runs, and whether its stop hook fired.
type helper struct {
	Scratch
	spare.Helper

	g      *tgraph.Graph
	k      int
	w      tgraph.Window
	stop   func() bool
	halted bool
}

// build is the helper's call: the ordinary build of h.w. It drops its
// references to the graph and the hook, so a Scratch kept for reuse does
// not keep them alive.
func (h *helper) build() {
	b := newBuilder(h.g, h.k, h.w, &h.Scratch)
	b.stop = h.stop
	h.g, h.stop = nil, nil
	b.run(h.w.End)
	h.halted = b.stopped
}

// stitch appends the records of h, a completed build of [mid, w.End], to
// b's records of the starts [w.Start, mid−1], giving exactly the records
// the serial build's transition from mid−1 to mid and its later ones
// emit:
//
//   - an index entry at mid for each vertex whose core time at mid differs
//     from b's at mid−1: h's entry, or {mid, ∞} where a finite value
//     becomes ∞ (h records no infinite start value);
//   - the window [mid−1, ect] of each edge alive at mid−1 with a finite
//     core time ect that expires at mid−1 or whose core time rises at mid;
//   - h's skyline windows and its index entries after mid unchanged.
//
// Per vertex and per edge the records stay in ascending start order, which
// is all the output assembly relies on.
func (b *builder) stitch(h *Scratch, mid tgraph.TS) {
	g := b.g
	// The core times at mid: h's first records, ∞ elsewhere. lastRec is
	// free once b's sweep has ended.
	ctMid := b.lastRec
	for u := range ctMid {
		ctMid[u] = inf
	}
	first := 0
	for _, r := range h.vctRecs {
		if r.entry.Start != mid {
			break
		}
		ctMid[r.u] = r.entry.CT
		first++
	}
	for u, c := range b.ct {
		if ctMid[u] != c {
			b.vctRecs = append(b.vctRecs, vctRec{u: tgraph.VID(u), entry: Entry{Start: mid, CT: ctMid[u]}})
		}
	}

	elo, _ := g.EdgesAt(mid - 1)
	for e := elo; e < b.hi; e++ {
		old := b.ect[e-b.lo]
		if old == inf {
			continue
		}
		te := g.Edge(e)
		if te.T == mid-1 || maxTS3(ctMid[te.U], ctMid[te.V], te.T) > old {
			b.ecsRecs = append(b.ecsRecs, ecsRec{e: e, win: tgraph.Window{Start: mid - 1, End: old}})
		}
	}
	b.ecsRecs = append(b.ecsRecs, h.ecsRecs...)
	b.vctRecs = append(b.vctRecs, h.vctRecs[first:]...)
}
