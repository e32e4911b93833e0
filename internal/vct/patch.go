package vct

import (
	"sort"

	"temporalkcore/internal/ds"
	"temporalkcore/internal/tgraph"
)

// PatchScratch rebuilds the CoreTime tables for (g, k, w) like BuildScratch,
// but uses a previously built index as an oracle for everything that cannot
// have changed, so the fixed-point work concentrates on the dirty
// time-suffix instead of the whole window.
//
// cached must be a correct index for the same k whose range overlaps
// [w.Start, w.End], built against an earlier (or identical) state of g, and
// dirtyFrom must be a rank such that every snapshot [ts, te] with
// te < dirtyFrom is unchanged since cached was built. For pure appends that
// is the first rank that received a new edge (tgraph.AppendStats
// FirstNewRank); PatchScratch additionally clamps dirtyFrom to one past the
// cached range end (beyond it the cache proves nothing) and one past w.End
// (a shrunk window invalidates core times that overshoot it). Cached
// entries with CT < dirtyFrom are then exact for the current graph and are
// pinned; everything else re-settles from valid lower bounds.
//
// The cached range need not contain w.Start: when it starts later, the
// prefix [w.Start, cached.Range.Start) runs as a plain build and the oracle
// takes over at the first start time it can vouch for, so a window extended
// backwards past the indexed start still reuses the clean overlap instead
// of rebuilding everything.
//
// cached must not be backed by s (ping-pong two Scratch values to patch an
// index in a loop). The returned Index and ECS are backed by s exactly as
// in BuildScratch. patched reports whether the cache was usable; when it is
// false a full BuildScratch ran instead.
func PatchScratch(g *tgraph.Graph, k int, w tgraph.Window, cached *Index, dirtyFrom tgraph.TS, s *Scratch) (ix *Index, ecs *ECS, patched bool, err error) {
	return PatchScratchStop(g, k, w, cached, dirtyFrom, s, nil)
}

// PatchScratchStop is PatchScratch with a cancellation hook, polled with
// the same bounded strides as BuildScratchStop: at least every stopStride
// worklist pops of the settle loop and every startStride start-time
// transitions. When it fires the patch abandons its partial state — the
// Scratch stays reusable, the cached index is untouched — and returns
// ErrStopped, so even a live-window refresh over a large dirty suffix
// cancels within one stride of work. The hook also covers the
// full-rebuild fallback.
//
// tkc:cancellable
func PatchScratchStop(g *tgraph.Graph, k int, w tgraph.Window, cached *Index, dirtyFrom tgraph.TS, s *Scratch, stop func() bool) (ix *Index, ecs *ECS, patched bool, err error) {
	if err := validate(g, k, w); err != nil {
		return nil, nil, false, err
	}
	if cached != nil {
		if dirtyFrom > cached.Range.End+1 {
			dirtyFrom = cached.Range.End + 1
		}
		if dirtyFrom > w.End+1 {
			dirtyFrom = w.End + 1
		}
	}
	// cs is the first start time the oracle can vouch for inside the
	// window; no clean prefix past it means nothing to reuse.
	cs := w.Start
	if cached != nil && cached.Range.Start > cs {
		cs = cached.Range.Start
	}
	if cached == nil || cached.K != k || dirtyFrom <= cs {
		ix, ecs, err := BuildScratchStop(g, k, w, s, stop)
		return ix, ecs, false, err
	}

	p := patcher{
		builder:     newBuilder(g, k, w, s),
		cached:      cached,
		dirtyFrom:   dirtyFrom,
		cachedStart: cs,
	}
	p.stop = stop
	p.cachedEnd = cached.Range.End
	if p.cachedEnd > w.End {
		p.cachedEnd = w.End
	}
	p.run()
	if p.stopped {
		return nil, nil, true, ErrStopped
	}
	p.indexInto(&s.ix)
	p.skylinesInto(&s.ecs)
	return &s.ix, &s.ecs, true, nil
}

type patcher struct {
	builder
	cached      *Index
	dirtyFrom   tgraph.TS
	cachedStart tgraph.TS // first start time the cache can vouch for
	cachedEnd   tgraph.TS // last start time the cache can vouch for
	frozenLive  bool      // some vertex may still be pinned
}

func (p *patcher) run() {
	g, w := p.g, p.w
	n := g.NumVertices()

	p.project()
	p.frozen = ds.GrowZero(p.frozen, n)
	p.entIdx = ds.Grow(p.entIdx, n)
	p.buildBuckets()

	if p.cachedStart == w.Start {
		// First start time: pin vertices whose cached value is still
		// exact; settle the rest from lower bounds (which the dirty
		// threshold tightens — no unchanged snapshot below dirtyFrom holds
		// a core for a dirty vertex, so its new core time is at least
		// dirtyFrom).
		p.frozenLive = true
		cachedN := len(p.cached.off) - 1 // vertices appended since the cache was built have no entries
		for u := 0; u < n; u++ {
			uu := tgraph.VID(u)
			c := inf
			if u < cachedN {
				ents := p.cached.Entries(uu)
				i := sort.Search(len(ents), func(i int) bool { return ents[i].Start > w.Start }) - 1
				p.entIdx[u] = p.cached.off[uu] + int32(i)
				if i >= 0 {
					c = ents[i].CT
				}
			}
			if c < p.dirtyFrom {
				p.ct[u] = c
				p.frozen[u] = true
				continue
			}
			lb := p.lowerBound(uu)
			if lb != inf && lb < p.dirtyFrom {
				lb = p.dirtyFrom
			}
			p.ct[u] = lb
		}
	} else {
		// The cached range starts inside the window: the prefix up to
		// cachedStart has no oracle, so the first start time initialises
		// exactly like a plain build (the dirty threshold says nothing
		// about starts the cache never covered). enterOracle pins what it
		// can once the loop reaches cachedStart.
		for u := 0; u < n; u++ {
			p.ct[u] = p.lowerBound(tgraph.VID(u))
		}
	}
	for u := 0; u < n; u++ {
		if !p.frozen[u] && p.ct[u] != inf {
			p.push(tgraph.VID(u))
		}
	}
	p.settle(false)
	if p.stopped {
		return
	}

	// Record the initial index labels and edge core times (as builder.run).
	for u := 0; u < n; u++ {
		p.lastRec[u] = p.ct[u]
		if p.ct[u] != inf {
			p.vctRecs = append(p.vctRecs, vctRec{u: tgraph.VID(u), entry: Entry{Start: w.Start, CT: p.ct[u]}})
		}
	}
	for e := p.lo; e < p.hi; e++ {
		te := g.Edge(e)
		p.ect[e-p.lo] = maxTS3(p.ct[te.U], p.ct[te.V], te.T)
	}

	for s := w.Start; s < w.End; s++ {
		// Past the cached range nothing is pinned any more: the remaining
		// time-suffix rebuilds exactly like builder.run, starting from the
		// exact values of the previous start. Unpin BEFORE expire so the
		// leaving-edge worklist pushes of this very transition are not
		// dropped by the frozen gate.
		if s+1 > p.cachedEnd && p.frozenLive {
			clear(p.frozen)
			p.frozenLive = false
		}
		p.expire(s)
		if s+1 == p.cachedStart {
			p.enterOracle()
		} else {
			p.applyCache(s + 1)
		}
		p.settle(true)
		if p.stopped {
			return
		}
		p.record(s)
	}

	// Flush the final windows of edges alive at the last start time.
	elo, ehi := g.EdgesAt(w.End)
	for e := elo; e < ehi; e++ {
		if v := p.ect[e-p.lo]; v != inf {
			p.ecsRecs = append(p.ecsRecs, ecsRec{e: e, win: tgraph.Window{Start: w.End, End: v}})
		}
	}
}

// buildBuckets groups the cached entries with start times in
// (cachedStart, cachedEnd] by start, so each transition applies its start's
// cached changes in O(changes) instead of scanning the index. Entries at or
// before cachedStart are consumed wholesale by the initialisation (or by
// enterOracle when the cached range starts inside the window). Buckets stay
// based at w.Start so applyCache's arithmetic is uniform.
func (p *patcher) buildBuckets() {
	span := int(p.cachedEnd) - int(p.w.Start)
	if span < 0 {
		span = 0
	}
	p.bktOff = ds.GrowZero(p.bktOff, span+1)
	total := 0
	for _, e := range p.cached.entries {
		if e.Start > p.cachedStart && e.Start <= p.cachedEnd {
			p.bktOff[e.Start-p.w.Start]++
			total++
		}
	}
	for b := 0; b < span; b++ {
		p.bktOff[b+1] += p.bktOff[b]
	}
	p.bktU = ds.Grow(p.bktU, total)
	cur := ds.Grow(p.cur, span)
	copy(cur, p.bktOff[:span])
	cachedN := len(p.cached.off) - 1
	for u := 0; u < cachedN; u++ {
		for _, e := range p.cached.Entries(tgraph.VID(u)) {
			if e.Start > p.cachedStart && e.Start <= p.cachedEnd {
				b := e.Start - p.w.Start - 1
				p.bktU[cur[b]] = tgraph.VID(u)
				cur[b]++
			}
		}
	}
	p.cur = cur
}

// enterOracle runs on the transition whose new start time is cachedStart,
// the first start the cached index covers: from here on the oracle is
// live. Each vertex's entry pointer is positioned at its last entry with
// Start <= cachedStart; clean cached values (CT < dirtyFrom) are adopted as
// exact and pinned — the current ct is CT(cachedStart-1) <= CT(cachedStart),
// so adoption only ever raises — and dirty vertices tighten to dirtyFrom
// (an unchanged snapshot below dirtyFrom cannot hold a core for them).
func (p *patcher) enterOracle() {
	g := p.g
	n := g.NumVertices()
	cachedN := len(p.cached.off) - 1
	p.frozenLive = true
	for u := 0; u < n; u++ {
		uu := tgraph.VID(u)
		c := inf
		if u < cachedN {
			ents := p.cached.Entries(uu)
			i := sort.Search(len(ents), func(i int) bool { return ents[i].Start > p.cachedStart }) - 1
			p.entIdx[u] = p.cached.off[uu] + int32(i)
			if i >= 0 {
				c = ents[i].CT
			}
		}
		if c < p.dirtyFrom {
			if c > p.ct[u] {
				p.markChanged(uu)
				p.raise(uu, c)
			}
			p.frozen[u] = true
			continue
		}
		// Dirty: the running ct (exact for the previous start) is already a
		// valid lower bound; only a tightening to dirtyFrom needs pushes.
		if p.dirtyFrom > p.ct[u] {
			p.markChanged(uu)
			p.raise(uu, p.dirtyFrom)
			p.push(uu)
		}
	}
}

// applyCache replays the cached core-time changes of start time target:
// pinned vertices take their new exact value directly (no F evaluation),
// and vertices whose cached value crosses the dirty threshold unpin into
// the worklist with a tightened lower bound.
func (p *patcher) applyCache(target tgraph.TS) {
	if target <= p.cachedStart || target > p.cachedEnd {
		return // no oracle outside (cachedStart, cachedEnd]; run() and
		// enterOracle own the boundaries
	}
	b := int(target - p.w.Start - 1)
	for _, u := range p.bktU[p.bktOff[b]:p.bktOff[b+1]] {
		p.entIdx[u]++ // the entry whose Start == target
		if !p.frozen[u] {
			continue // already dirty; the worklist owns it
		}
		if c := p.cached.entries[p.entIdx[u]].CT; c < p.dirtyFrom {
			// Still exact: adopt the raise and wake the neighbours whose
			// fixed point may depend on it.
			if c > p.ct[u] {
				p.markChanged(u)
				p.raise(u, c)
			}
			continue
		}
		// Crossed the dirty threshold: the cached value is no longer
		// trustworthy. Its previous exact value and dirtyFrom are both
		// valid lower bounds; settle computes the truth.
		p.frozen[u] = false
		if p.dirtyFrom > p.ct[u] {
			p.markChanged(u)
			p.raise(u, p.dirtyFrom)
		}
		p.push(u)
	}
}
