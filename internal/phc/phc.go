// Package phc implements the full PHC-style historical k-core index of
// Yu et al., "On Querying Historical K-Cores" (VLDB 2021) — reference [13]
// of the reproduced paper, which uses only the single-k slice of it (the
// VCT index of package vct).
//
// The index stores, for every k from 1 to kmax and every vertex, the
// compressed core-time labels over a time range. Once built it answers
// historical k-core queries — "which vertices/edges form the k-core of the
// snapshot over [ts, te]?" — without touching the graph's structure again:
// a vertex u belongs to the k-core of [ts, te] iff CT^k_ts(u) <= te, and a
// temporal edge (u, v, t) belongs iff additionally ts <= t and
// max(CT^k_ts(u), CT^k_ts(v)) <= te (Lemma 1 of the reproduced paper).
//
// Under a growing graph the index is maintained incrementally: Patch
// re-settles only the dirty time-suffix an append touched (bounded by the
// tgraph.AppendStats FirstNewRank watermark, the same frontier trick the
// single-k dynamic tables use) instead of rebuilding every k slice from
// scratch, falling back to a full Build when the dirty region dominates
// the window.
package phc

import (
	"fmt"

	"temporalkcore/internal/kcore"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// Fingerprint pins the exact graph state an index was built against: the
// vertex/edge counts, the compressed rank ceiling and the mutation
// sequence number. On an append-only graph the quadruple identifies the
// edge prefix exactly, so it is both the staleness watermark carrier for
// Patch (TMax is the dirty low-water mark of any later append) and the
// load-time guard of the serial format (an index decoded against a
// different graph state is rejected instead of answering wrongly).
type Fingerprint struct {
	Vertices int64
	Edges    int64
	TMax     int64 // compressed rank ceiling (tgraph.Graph.TMax) at build
	MutSeq   int64 // mutation sequence number at build
}

// FingerprintOf captures the current state of g.
func FingerprintOf(g *tgraph.Graph) Fingerprint {
	return Fingerprint{
		Vertices: int64(g.NumVertices()),
		Edges:    int64(g.NumEdges()),
		TMax:     int64(g.TMax()),
		MutSeq:   g.MutSeq(),
	}
}

// Matches reports whether g is in exactly the state the fingerprint
// records.
func (fp Fingerprint) Matches(g *tgraph.Graph) bool { return fp == FingerprintOf(g) }

// Index is a historical k-core index over one time range for every k in
// [1, KMax]. It is immutable and safe for concurrent use.
type Index struct {
	Range tgraph.Window
	KMax  int

	// Fp records the graph state the index answers for; see Fingerprint.
	Fp Fingerprint

	perK []*vct.Index // perK[k-1] is the VCT index for k
}

// Build constructs the index for every k from 1 to the core number bound
// of the projected snapshot over w. The cost is the sum of the per-k VCT
// constructions, each O(|VCT_k| · deg_avg).
func Build(g *tgraph.Graph, w tgraph.Window) (*Index, error) {
	return BuildStop(g, w, nil)
}

// BuildStop is Build with a cancellation hook: stop (when non-nil) is
// polled inside every per-k CoreTime settle loop with the bounded stride
// of vct.BuildScratchStop, plus once per k slice, so even a build over a
// large window with a deep k hierarchy cancels within one stride of work.
// When it fires the partial index is abandoned and vct.ErrStopped is
// returned; callers translate it to their own cancellation error
// (typically ctx.Err()).
//
// tkc:cancellable
func BuildStop(g *tgraph.Graph, w tgraph.Window, stop func() bool) (*Index, error) {
	if !w.Valid() || w.End > g.TMax() {
		return nil, fmt.Errorf("phc: window [%d,%d] outside graph range [1,%d]", w.Start, w.End, g.TMax())
	}
	_, kmax := kcore.Decompose(g, w)
	ix := &Index{Range: w, KMax: kmax, Fp: FingerprintOf(g), perK: make([]*vct.Index, kmax)}
	// One Scratch serves every k slice, and each arena-backed slice is
	// cloned into self-owned arrays, so a pool miss regrows the buffers
	// (a split build's helper's among them) once per index, not per slice.
	s := vct.GetScratch()
	defer vct.PutScratch(s)
	for k := 1; k <= kmax; k++ {
		if stop != nil && stop() {
			return nil, vct.ErrStopped
		}
		sub, _, err := vct.BuildScratchStop(g, k, w, s, stop)
		if err != nil {
			return nil, err
		}
		ix.perK[k-1] = sub.Clone()
	}
	return ix, nil
}

// patchMinCleanNum/Den is the fallback threshold of Patch: when the clean
// prefix the cached index can vouch for covers less than 1/4 of the target
// window, the per-k patch bookkeeping (bucket replay, pin bitmap, output
// cloning) stops paying for itself and a straight Build is used instead.
const (
	patchMinCleanNum = 1
	patchMinCleanDen = 4
)

// Patch returns an index for (g, w) that reuses the labels of ix wherever
// the dirty watermark proves them still exact, re-settling only the dirty
// time-suffix; see PatchStop.
func (ix *Index) Patch(g *tgraph.Graph, w tgraph.Window, dirtyFrom tgraph.TS) (*Index, bool, error) {
	return ix.PatchStop(g, w, dirtyFrom, nil)
}

// PatchStop incrementally maintains the index after the graph grew at the
// time frontier: it builds the index for (g, w) using ix as an oracle for
// every snapshot the appends cannot have changed, so the fixed-point work
// per k concentrates on the dirty time-suffix instead of the whole window
// (the PR 2 frontier trick, applied to every PHC label array at once).
//
// ix must have been built against an earlier (or identical) state of the
// same append-only graph, and dirtyFrom must be a rank such that every
// snapshot [ts, te] with te < dirtyFrom is unchanged since ix was built.
// For pure appends that is the first rank that received a new edge
// (tgraph.AppendStats FirstNewRank); the TMax recorded in ix.Fp is a valid
// conservative choice, since time-ordered appends only ever add edges at
// ranks >= the frontier. The receiver is not modified; a fresh, self-owned
// Index is returned.
//
// patched reports whether the oracle was used. The indexed range need not
// contain w.Start: a window extended backwards past the indexed start runs
// its uncovered prefix as a plain build per k and reuses the clean overlap
// from there (vct.PatchScratchStop's partial-range mode). PatchStop falls
// back to a full BuildStop (patched == false) when the cache proves
// nothing — dirtyFrom precedes the first start the oracle covers inside w
// — and when the clean overlap covers less than a quarter of the window,
// in which case re-settling nearly everything through the patch machinery
// would cost more than building. stop follows the BuildStop contract;
// cancellation returns vct.ErrStopped with ix untouched.
//
// tkc:cancellable
func (ix *Index) PatchStop(g *tgraph.Graph, w tgraph.Window, dirtyFrom tgraph.TS, stop func() bool) (*Index, bool, error) {
	if !w.Valid() || w.End > g.TMax() {
		return nil, false, fmt.Errorf("phc: window [%d,%d] outside graph range [1,%d]", w.Start, w.End, g.TMax())
	}
	if dirtyFrom > ix.Range.End+1 {
		dirtyFrom = ix.Range.End + 1 // beyond its range the oracle proves nothing
	}
	// The clean region the oracle vouches for starts at the later of
	// w.Start and the indexed start — an index covering only a suffix of
	// the window still patches, it just rebuilds the uncovered prefix.
	cs := w.Start
	if ix.Range.Start > cs {
		cs = ix.Range.Start
	}
	clean := int64(dirtyFrom) - int64(cs)
	span := int64(w.End) - int64(w.Start) + 1
	if clean <= 0 || clean*patchMinCleanDen < span*patchMinCleanNum {
		nix, err := BuildStop(g, w, stop)
		return nix, false, err
	}

	_, kmax := kcore.Decompose(g, w)
	out := &Index{Range: w, KMax: kmax, Fp: FingerprintOf(g), perK: make([]*vct.Index, kmax)}
	s := vct.GetScratch()
	defer vct.PutScratch(s)
	for k := 1; k <= kmax; k++ {
		if stop != nil && stop() {
			return nil, false, vct.ErrStopped
		}
		if k <= ix.KMax {
			// The arena-backed patch output is cloned into self-owned
			// arrays; the scratch is reused across the k slices.
			sub, _, _, err := vct.PatchScratchStop(g, k, w, ix.perK[k-1], dirtyFrom, s, stop)
			if err != nil {
				return nil, false, err
			}
			out.perK[k-1] = sub.Clone()
			continue
		}
		// A k tier the old state never reached: nothing cached to patch
		// from, build the new slice outright on the same scratch.
		sub, _, err := vct.BuildScratchStop(g, k, w, s, stop)
		if err != nil {
			return nil, false, err
		}
		out.perK[k-1] = sub.Clone()
	}
	return out, true, nil
}

// Size returns the total number of labels over all k, the paper's |PHC|.
func (ix *Index) Size() int {
	total := 0
	for _, sub := range ix.perK {
		if sub != nil {
			total += sub.Size()
		}
	}
	return total
}

// MemBytes estimates the resident size of the index's backing arrays, the
// unit of the serving cache's byte budget.
func (ix *Index) MemBytes() int64 {
	var total int64
	for _, sub := range ix.perK {
		if sub != nil {
			total += sub.MemBytes()
		}
	}
	return total
}

// CoreTime returns CT^k_ts(u), or tgraph.InfTime when u is never in a
// k-core of a window starting at ts inside the index range. k beyond KMax
// is always infinite.
func (ix *Index) CoreTime(u tgraph.VID, k int, ts tgraph.TS) tgraph.TS {
	if k < 1 {
		return ix.Range.Start // every vertex is a 0-core member immediately
	}
	if k > ix.KMax {
		return tgraph.InfTime
	}
	return ix.perK[k-1].CoreTime(u, ts)
}

// InCore reports whether vertex u is in the k-core of the snapshot over
// [w.Start, w.End]. w must lie inside the index range.
func (ix *Index) InCore(u tgraph.VID, k int, w tgraph.Window) bool {
	if k < 1 {
		return true
	}
	if k > ix.KMax || !ix.Range.Contains(w) {
		return false
	}
	ct := ix.perK[k-1].CoreTime(u, w.Start)
	return ct != tgraph.InfTime && ct <= w.End
}

// CoreVertices appends the vertices of the k-core of the snapshot over w
// to dst. The scan is O(n) over the vertex universe plus the output.
func (ix *Index) CoreVertices(g *tgraph.Graph, k int, w tgraph.Window, dst []tgraph.VID) []tgraph.VID {
	if k < 1 || k > ix.KMax || !ix.Range.Contains(w) {
		return dst
	}
	sub := ix.perK[k-1]
	for u := tgraph.VID(0); u < tgraph.VID(g.NumVertices()); u++ {
		ct := sub.CoreTime(u, w.Start)
		if ct != tgraph.InfTime && ct <= w.End {
			dst = append(dst, u)
		}
	}
	return dst
}

// CoreEdges appends the temporal edges of the k-core of the snapshot over
// w to dst, scanning only the edges inside the window.
func (ix *Index) CoreEdges(g *tgraph.Graph, k int, w tgraph.Window, dst []tgraph.EID) []tgraph.EID {
	if k < 1 || k > ix.KMax || !ix.Range.Contains(w) {
		return dst
	}
	sub := ix.perK[k-1]
	lo, hi := g.EdgesIn(w)
	for e := lo; e < hi; e++ {
		te := g.Edge(e)
		cu := sub.CoreTime(te.U, w.Start)
		if cu == tgraph.InfTime || cu > w.End {
			continue
		}
		cv := sub.CoreTime(te.V, w.Start)
		if cv == tgraph.InfTime || cv > w.End {
			continue
		}
		dst = append(dst, e)
	}
	return dst
}

// CoreNumber returns the largest k such that u is in the k-core of the
// snapshot over w (0 when u is isolated there). Binary search over k uses
// the nesting of cores: the k-core contains the (k+1)-core.
func (ix *Index) CoreNumber(u tgraph.VID, w tgraph.Window) int {
	lo, hi := 1, ix.KMax
	best := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if ix.InCore(u, mid, w) {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}
