package vct

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"temporalkcore/internal/ds"
	"temporalkcore/internal/tgraph"
)

// ErrStopped is returned by BuildScratchStop when its stop hook fired
// before the build completed. Callers translate it to their own
// cancellation error (typically ctx.Err()).
var ErrStopped = errors.New("vct: build stopped")

// Build computes the vertex core time index and the edge core window
// skylines of g for parameter k over the query range w (Algorithm 2 plus
// the single-k PHC computation it builds on). k must be >= 1 and w must be a
// valid window inside [1, g.TMax()].
//
// Build draws its working state from the shared scratch pool and returns
// freshly allocated outputs that the caller may retain indefinitely. For
// the repeated-query hot path that drops the outputs after enumerating,
// BuildScratch avoids even the output allocations.
//
// At GOMAXPROCS >= 2, a build of a large window runs the later part of
// its start times on a helper goroutine and stitches the two parts into
// the same outputs ("Start-time split" in the package documentation).
func Build(g *tgraph.Graph, k int, w tgraph.Window) (*Index, *ECS, error) {
	return BuildStop(g, k, w, nil)
}

// BuildStop is Build with a cancellation hook (see BuildScratchStop for the
// polling contract, which includes two goroutines polling stop at once):
// the outputs are freshly allocated and self-owned, so callers that retain
// tables indefinitely — the serving cache — get memory no scratch arena can
// later reclaim.
//
// tkc:cancellable
func BuildStop(g *tgraph.Graph, k int, w tgraph.Window, stop func() bool) (*Index, *ECS, error) {
	if err := validate(g, k, w); err != nil {
		return nil, nil, err
	}
	s := GetScratch()
	defer PutScratch(s)
	b := buildSplit(g, k, w, s, stop, splitAt(g, w))
	if b.stopped {
		return nil, nil, ErrStopped
	}
	return b.index(), b.skylines(), nil
}

// BuildScratch is Build with caller-owned working state: the returned Index
// and ECS are backed by s's arenas and stay valid only until the next build
// with s (or until s is returned to the pool). Between builds with separate
// Scratch values there is no shared state, so concurrent use is safe as
// long as each goroutine brings its own Scratch. A warm s allocates
// nothing, split or not.
func BuildScratch(g *tgraph.Graph, k int, w tgraph.Window, s *Scratch) (*Index, *ECS, error) {
	return BuildScratchStop(g, k, w, s, nil)
}

// BuildScratchStop is BuildScratch with a cancellation hook: stop (when
// non-nil) is polled at least every stopStride worklist pops of the settle
// loop and every startStride start-time transitions, whichever comes
// first. When it fires the build abandons its partial state (the Scratch
// stays reusable) and returns ErrStopped, so a runaway CoreTime phase
// cancels within one stride of work.
//
// Both parts of a split build poll stop, each with these strides, so two
// goroutines may call it at once: it must be safe for concurrent use, as
// a context's Done check is. Both parts end before the build returns, on
// every path, and a panic in the helper's part (a panicking stop hook, for
// one) is raised again on the caller's goroutine.
//
// tkc:cancellable
func BuildScratchStop(g *tgraph.Graph, k int, w tgraph.Window, s *Scratch, stop func() bool) (*Index, *ECS, error) {
	if err := validate(g, k, w); err != nil {
		return nil, nil, err
	}
	return buildScratch(g, k, w, s, stop, splitAt(g, w))
}

const inf = tgraph.InfTime

type vctRec struct {
	u     tgraph.VID
	entry Entry
}

type ecsRec struct {
	e   tgraph.EID
	win tgraph.Window
}

// stopStride bounds how many worklist pops run between cancellation
// polls, and startStride how many start-time transitions do.
const (
	stopStride  = 2048
	startStride = 64
)

type builder struct {
	g *tgraph.Graph
	k int
	w tgraph.Window

	lo, hi tgraph.EID // edges inside w

	stop    func() bool // optional cancellation hook, polled with a stride
	stopped bool
	work    int // settle work since the last poll; see spend

	*Scratch
}

func validate(g *tgraph.Graph, k int, w tgraph.Window) error {
	if k < 1 {
		return fmt.Errorf("vct: k must be >= 1, got %d", k)
	}
	if !w.Valid() || w.End > g.TMax() {
		return fmt.Errorf("vct: window [%d,%d] outside graph range [1,%d]", w.Start, w.End, g.TMax())
	}
	return nil
}

func newBuilder(g *tgraph.Graph, k int, w tgraph.Window, s *Scratch) builder {
	lo, hi := g.EdgesIn(w)
	s.prepare(g, int(hi-lo))
	return builder{g: g, k: k, w: w, lo: lo, hi: hi, Scratch: s}
}

// run sweeps the start times [w.Start, last] of b's window: the fixed
// point at w.Start, then one transition per later start time. A sweep to
// w.End also flushes the windows of the edges alive at w.End; a shorter
// one (the first part of a split build) leaves the records of its last
// start time to the stitch.
func (b *builder) run(last tgraph.TS) {
	g, w := b.g, b.w
	b.project()

	// Lower-bound initialisation (k-th smallest first time), then the fixed
	// point for the first start time.
	for u := 0; u < g.NumVertices(); u++ {
		b.ct[u] = b.lowerBound(tgraph.VID(u))
		b.push(tgraph.VID(u))
	}
	b.settle(false)
	if b.stopped {
		return
	}

	// Record the initial index labels and edge core times.
	for u := 0; u < g.NumVertices(); u++ {
		b.lastRec[u] = b.ct[u]
		if b.ct[u] != inf {
			b.vctRecs = append(b.vctRecs, vctRec{u: tgraph.VID(u), entry: Entry{Start: w.Start, CT: b.ct[u]}})
		}
	}
	for e := b.lo; e < b.hi; e++ {
		te := g.Edge(e)
		b.ect[e-b.lo] = maxTS3(b.ct[te.U], b.ct[te.V], te.T)
	}

	// Advance the start time.
	for s := w.Start; s < last; s++ {
		b.transition(s)
		if b.stopped {
			return
		}
	}
	if last < w.End {
		return
	}

	// Flush the final windows of edges alive at the last start time (their
	// timestamp is exactly w.End; everything earlier expired in the loop).
	elo, ehi := g.EdgesAt(w.End)
	for e := elo; e < ehi; e++ {
		if v := b.ect[e-b.lo]; v != inf {
			b.ecsRecs = append(b.ecsRecs, ecsRec{e: e, win: tgraph.Window{Start: w.End, End: v}})
		}
	}
}

// transition moves the start time from s to s+1.
func (b *builder) transition(s tgraph.TS) {
	b.expire(s)

	// Re-settle the fixed point for start time s+1.
	b.settle(true)
	if b.stopped {
		return
	}

	b.record(s)
}

// expire handles the edges timestamped s leaving the window: it flushes
// their final skyline window ([s, ect] with last valid start s = t_e) and
// advances their pairs' first times, which reach ∞ once a pair has no
// interaction left in [s+1, w.End]. An endpoint is queued only when the
// other endpoint's contribution to it crosses its core time (see wake).
func (b *builder) expire(s tgraph.TS) {
	g := b.g
	elo, ehi := g.EdgesAt(s)
	for e := elo; e < ehi; e++ {
		if v := b.ect[e-b.lo]; v != inf {
			b.ecsRecs = append(b.ecsRecs, ecsRec{e: e, win: tgraph.Window{Start: s, End: v}})
		}
		i := b.pairSlot[g.EdgePair(e)]
		fOld := b.ft[i]
		if fOld != s {
			continue // a duplicate edge at s already advanced the pair
		}
		wp := &b.wpairs[i]
		times := g.PairTimes(wp.p)
		wp.ptr++
		fNew := inf
		if int(wp.ptr) < len(times) && times[wp.ptr] <= b.w.End {
			fNew = times[wp.ptr]
		}
		b.ft[i] = fNew
		te := g.Edge(e)
		cu, cv := b.ct[te.U], b.ct[te.V]
		b.wake(te.U, max(cv, fOld), max(cv, fNew))
		b.wake(te.V, max(cu, fOld), max(cu, fNew))
	}
}

// record logs the vertices whose core time changed in the transition from
// start time s and updates the core times of their alive incident edges
// (Algorithm 2 lines 6-11). Only edges timestamped before u's new core time
// can move: for t >= CT(u), max(CT(u), CT(v), t) = max(CT(v), t) (Lemma 1),
// which was the edge's core time already unless CT(v) moved too, and then
// v's own scan covers it. So u's scan stops at min(CT(u), w.End+1).
func (b *builder) record(s tgraph.TS) {
	g := b.g
	for _, u := range b.changed {
		b.chMark[u] = false
		if b.ct[u] == b.lastRec[u] {
			continue
		}
		b.lastRec[u] = b.ct[u]
		b.vctRecs = append(b.vctRecs, vctRec{u: u, entry: Entry{Start: s + 1, CT: b.ct[u]}})

		inc := g.Incident(u)
		j := b.incPtr[u]
		for int(j) < len(inc) && g.Edge(inc[j]).T <= s {
			j++
		}
		b.incPtr[u] = j
		bound := min(b.ct[u], b.w.End+1)
		for ; int(j) < len(inc); j++ {
			e := inc[j]
			te := g.Edge(e)
			if te.T >= bound {
				break
			}
			nv := maxTS3(b.ct[te.U], b.ct[te.V], te.T)
			old := b.ect[e-b.lo]
			if nv > old {
				if old != inf {
					b.ecsRecs = append(b.ecsRecs, ecsRec{e: e, win: tgraph.Window{Start: s, End: old}})
				}
				b.ect[e-b.lo] = nv
			}
		}
	}
	b.changed = b.changed[:0]
}

// settle runs the worklist until no core time can be raised. When track is
// true the raised vertices are appended to b.changed. A cancelled build
// abandons the worklist mid-settle; callers check b.stopped. Each call is
// one start time's fixed point, so it charges the stop hook's budget a
// transition's share up front and each pop one unit; the budget outlives
// the call, because a window-local settle often pops only a handful of
// vertices. The poll sits behind a single predictable branch so
// uncancellable builds pay nothing on this hot loop.
func (b *builder) settle(track bool) {
	poll := b.stop != nil
	if poll && b.spend(stopStride/startStride) {
		return
	}
	for b.q.Len() > 0 {
		if poll && b.spend(1) {
			return
		}
		u := tgraph.VID(b.q.Pop())
		b.inQ[u] = false
		nv, sup := b.eval(u)
		b.sup[u] = sup
		if nv <= b.ct[u] {
			continue
		}
		if track {
			b.markChanged(u)
		}
		b.raise(u, nv)
	}
}

// spend charges n units of work to the stop hook's budget and polls the
// hook once stopStride units have built up since the last poll. It reports
// whether the build must stop.
func (b *builder) spend(n int) bool {
	if b.work += n; b.work >= stopStride {
		b.work = 0
		b.stopped = b.stop()
	}
	return b.stopped
}

// raise lifts ct[u] to nv and wakes each window neighbour whose
// contribution from u, max(ct[u], firstTime), crosses its core time.
func (b *builder) raise(u tgraph.VID, nv tgraph.TS) {
	old := b.ct[u]
	b.ct[u] = nv
	for _, nb := range b.nbrs[b.nbrOff[u]:b.nbrEnd[u]] {
		ft := b.ft[nb.pair]
		b.wake(nb.v, max(old, ft), max(nv, ft))
	}
}

// wake handles one contribution to u's F(CT) rising from `from` to `to`.
// Only a rise across ct[u] can unsettle u: a contribution above ct[u] is
// not among the k smallest, and moving one that stays <= ct[u] cannot lift
// the k-th smallest above ct[u].
func (b *builder) wake(u tgraph.VID, from, to tgraph.TS) {
	if c := b.ct[u]; from <= c && c < to {
		b.dropSupport(u)
	}
}

// dropSupport takes one crossed contribution out of u's support and queues
// u once fewer than k remain: until then F(CT)(u) <= ct[u] still holds. It
// stays out of line so that wake, which runs for every neighbour of a
// raised vertex, inlines its crossing test.
//
//go:noinline
func (b *builder) dropSupport(u tgraph.VID) {
	b.sup[u]--
	if int(b.sup[u]) < b.k {
		b.push(u)
	}
}

func (b *builder) push(u tgraph.VID) {
	if b.inQ[u] || b.ct[u] == inf {
		return
	}
	// Patched builds pin vertices whose cached core time is still exact;
	// they never enter the worklist (len(frozen) is 0 on normal builds).
	if len(b.frozen) > 0 && b.frozen[u] {
		return
	}
	b.inQ[u] = true
	b.q.Push(int32(u))
}

func (b *builder) markChanged(u tgraph.VID) {
	if !b.chMark[u] {
		b.chMark[u] = true
		b.changed = append(b.changed, u)
	}
}

// insertKth pushes v into the ascending k-slot selection buffer, keeping
// only the k smallest values seen so far, and counts in b.ties the values
// outside the buffer that equal its k-th. Once the buffer is saturated
// most candidates fail the single buf[k-1] comparison, so F(CT) evaluation
// costs O(deg + k·shifts) instead of the O(deg·log deg) of a full sort.
func (b *builder) insertKth(v tgraph.TS) {
	buf := b.buf
	i := len(buf)
	if i == b.k {
		last := buf[i-1]
		if v >= last {
			if v == last {
				b.ties++
			}
			return
		}
		i--
		// The evicted k-th stays a tie when the new k-th equals it.
		if i > 0 && buf[i-1] == last {
			b.ties++
		} else {
			b.ties = 0
		}
	} else {
		buf = append(buf, 0)
	}
	for i > 0 && buf[i-1] > v {
		buf[i] = buf[i-1]
		i--
	}
	buf[i] = v
	b.buf = buf
}

// eval computes F(CT)(u): the k-th smallest max(CT(v), firstTime(u,v)) over
// u's window neighbours, and how many of those contributions are at or
// below it (see kth). Core times only rise and first times only advance,
// so a neighbour with CT = ∞ or an exhausted pair stays unusable for the
// rest of the sweep: eval swap-removes it from u's list.
func (b *builder) eval(u tgraph.VID) (tgraph.TS, int32) {
	b.buf, b.ties = b.buf[:0], 0
	nbrs := b.nbrs[b.nbrOff[u]:b.nbrEnd[u]]
	for i := 0; i < len(nbrs); {
		nb := nbrs[i]
		cv, ft := b.ct[nb.v], b.ft[nb.pair]
		if cv == inf || ft == inf {
			last := len(nbrs) - 1
			nbrs[i] = nbrs[last]
			nbrs = nbrs[:last]
			continue
		}
		i++
		// The common case inline: a contribution at or above a full
		// buffer's k-th is rejected (a tie when equal) without a call to
		// insertKth, which counting ties makes too large to inline.
		c := max(cv, ft)
		if n := len(b.buf); n == b.k && c >= b.buf[n-1] {
			if c == b.buf[n-1] {
				b.ties++
			}
			continue
		}
		b.insertKth(c)
	}
	b.nbrEnd[u] = b.nbrOff[u] + int32(len(nbrs))
	return b.kth()
}

// kth reports the selection's k-th smallest value and how many values were
// at or below it (k plus ties), or (∞, 0) when fewer than k were offered.
func (b *builder) kth() (tgraph.TS, int32) {
	if len(b.buf) < b.k {
		return inf, 0
	}
	return b.buf[b.k-1], int32(b.k) + b.ties
}

// lowerBound is the k-th smallest first time of u's window pairs, a valid
// lower bound on the core time.
func (b *builder) lowerBound(u tgraph.VID) tgraph.TS {
	b.buf, b.ties = b.buf[:0], 0
	for _, nb := range b.nbrs[b.nbrOff[u]:b.nbrEnd[u]] {
		b.insertKth(b.ft[nb.pair])
	}
	lb, _ := b.kth()
	return lb
}

// project builds the window's own adjacency in one pass over its edges
// [lo, hi). Each pair with an interaction in w gets a slot holding its
// current first time (its first window edge, as edges are time sorted)
// and that time's position in the pair's time list, and one entry in each
// endpoint's window-local neighbour list. pairSlot is a sparse set (a slot
// counts only if it points back at the pair), so it is never cleared and
// stays valid across graphs. Incidence pointers are positioned for the
// window's vertices only: no other vertex gets a finite core time, so
// record never reaches one.
func (b *builder) project() {
	g := b.g
	n := g.NumVertices()
	off := ds.GrowZero(b.nbrOff, n+1)
	for e := b.lo; e < b.hi; e++ {
		p := g.EdgePair(e)
		if i := b.pairSlot[p]; int(i) < len(b.wpairs) && b.wpairs[i].p == p {
			continue
		}
		te := g.Edge(e)
		b.pairSlot[p] = int32(len(b.wpairs))
		b.wpairs = append(b.wpairs, winPair{p: p, ptr: searchGE(g.PairTimes(p), te.T)})
		b.ft = append(b.ft, te.T)
		off[te.U+1]++
		off[te.V+1]++
	}
	for u := 0; u < n; u++ {
		if off[u+1] > 0 {
			b.incPtr[u] = searchGE(g.Incident(tgraph.VID(u)), b.lo)
		}
		off[u+1] += off[u]
	}
	end := ds.Grow(b.nbrEnd, n)
	copy(end, off[:n])
	nbrs := ds.Grow(b.nbrs, int(off[n]))
	for i, wp := range b.wpairs {
		pr := g.Pair(wp.p)
		nbrs[end[pr.U]] = winNbr{v: pr.V, pair: int32(i)}
		end[pr.U]++
		nbrs[end[pr.V]] = winNbr{v: pr.U, pair: int32(i)}
		end[pr.V]++
	}
	b.nbrOff, b.nbrEnd, b.nbrs = off, end, nbrs
}

// index assembles the recorded labels into a freshly allocated Index.
func (b *builder) index() *Index {
	ix := &Index{}
	b.fillIndex(ix, make([]int32, b.g.NumVertices()+1), make([]Entry, len(b.vctRecs)))
	return ix
}

// indexInto assembles the recorded labels into ix reusing its arenas.
func (b *builder) indexInto(ix *Index) {
	b.fillIndex(ix, ds.GrowZero(ix.off, b.g.NumVertices()+1), ds.Grow(ix.entries, len(b.vctRecs)))
}

// fillIndex performs a stable counting sort of the records by vertex
// (records are already in ascending start order). off must be zeroed.
func (b *builder) fillIndex(ix *Index, off []int32, entries []Entry) {
	n := b.g.NumVertices()
	ix.K, ix.Range, ix.off, ix.entries = b.k, b.w, off, entries
	for _, r := range b.vctRecs {
		off[r.u+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	cur := ds.Grow(b.cur, n)
	copy(cur, off[:n])
	for _, r := range b.vctRecs {
		entries[cur[r.u]] = r.entry
		cur[r.u]++
	}
	b.cur = cur
}

// skylines assembles the recorded windows into a freshly allocated ECS.
func (b *builder) skylines() *ECS {
	e := &ECS{}
	b.fillSkylines(e, make([]int32, int(b.hi-b.lo)+1), make([]tgraph.Window, len(b.ecsRecs)))
	return e
}

// skylinesInto assembles the recorded windows into e reusing its arenas.
func (b *builder) skylinesInto(e *ECS) {
	b.fillSkylines(e, ds.GrowZero(e.off, int(b.hi-b.lo)+1), ds.Grow(e.wins, len(b.ecsRecs)))
}

// fillSkylines performs a stable counting sort of the windows by edge
// (per-edge order is ascending start = emission order). off must be zeroed.
func (b *builder) fillSkylines(e *ECS, off []int32, wins []tgraph.Window) {
	m := int(b.hi - b.lo)
	e.K, e.Range, e.lo, e.hi, e.off, e.wins = b.k, b.w, b.lo, b.hi, off, wins
	for _, r := range b.ecsRecs {
		off[r.e-b.lo+1]++
	}
	for i := 0; i < m; i++ {
		off[i+1] += off[i]
	}
	cur := ds.Grow(b.cur, m)
	copy(cur, off[:m])
	for _, r := range b.ecsRecs {
		wins[cur[r.e-b.lo]] = r.win
		cur[r.e-b.lo]++
	}
	b.cur = cur
}

// searchGE returns the first index of xs (ascending) holding a value >= v.
func searchGE[T cmp.Ordered](xs []T, v T) int32 {
	i, _ := slices.BinarySearch(xs, v)
	return int32(i)
}

func maxTS3(a, b, c tgraph.TS) tgraph.TS {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	if a >= inf {
		return inf
	}
	return a
}
