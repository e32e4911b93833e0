package enum

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"temporalkcore/internal/ds"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// slot is one edge's entry in the per-start-time order L_t. By Definition
// 6 an edge has at most one live window at any start time, and window i
// activates exactly when window i-1's start has passed, so a slot holds
// the edge's live window and a cursor to the next one. Slot 0 is the
// list's sentinel head; edge lo+i-1 owns slot i, so slot order is edge-id
// order and 0 terminates every link.
type slot struct {
	ord        uint64    // end offset above the slot index: the (end, eid) rank
	start      tgraph.TS // start of the live window
	prev, next int32     // L_t links
	cal        int32     // next slot whose live window has the same start
	cur, lim   int32     // live window's index in ecs.Flat; one past the edge's last
}

// Scratch holds the edge slots, the start-time calendar, the activation
// batch and the edge buffer of Enumerate, and the end-offset tree of
// CountStop, so repeated enumerations and counts — batch workloads,
// PreparedQuery reuse — allocate nothing once warm. It is O(m + tlen) for
// m edges in the query range and tlen start times, not O(|ECS|): windows
// enter the slots lazily as the sweep reaches them. The zero value is
// ready to use; a Scratch must not be shared by concurrent enumerations.
type Scratch struct {
	slots []slot
	cal   []int32  // calendar: head slot per start offset, 0 when empty
	cnt   []int32  // counting-sort scratch for the first batch, len tlen+1
	batch []uint64 // ord keys of the windows activating at the current step
	tmp   []uint64 // first-batch keys in slot order, before the counting sort

	edgeBuf []tgraph.EID
	tree    []endAgg // CountStop's segment tree over end offsets

	// windows is the size of the skyline the last enumeration or count
	// read; see Windows.
	windows int

	// half runs the later sweep of a split count (see countSplit), kept
	// with this Scratch as vct.Scratch keeps its own.
	half *helper
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the shared pool.
//
// tkc:pool-get
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the shared pool; the caller must not use
// it afterwards.
//
// tkc:pool-put
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// Enumerate runs the paper's optimal algorithm (Algorithm 5 with AS-Output,
// Algorithm 4): it emits every distinct temporal k-core of the skyline's
// query range exactly once, identified by its tightest time interval, in
// time bounded by the total result size O(|R|). It returns false when the
// sink stopped the enumeration early. Working state comes from the shared
// scratch pool; EnumerateWith accepts caller-owned state instead.
func Enumerate(g *tgraph.Graph, ecs *vct.ECS, sink Sink) bool {
	s := GetScratch()
	defer PutScratch(s)
	return EnumerateWith(g, ecs, sink, s)
}

// EnumerateWith is Enumerate drawing every buffer from s, so a warm scratch
// makes repeated enumeration allocation-free. Each concurrent enumeration
// needs its own Scratch.
func EnumerateWith(g *tgraph.Graph, ecs *vct.ECS, sink Sink, s *Scratch) bool {
	done, _ := EnumerateStop(g, ecs, sink, s, nil)
	return done
}

// Windows returns |ECS| of the window the last enumeration or count on s
// read, which for EnumerateWindowStop and CountWindowStop is the summed
// length of its edges' runs: what a build of the window would hold. The
// set-up counts it before the sweep, so it is whole also after an early
// stop or a cancellation.
func (s *Scratch) Windows() int { return s.windows }

// stopStride bounds how many start times the enumeration advances between
// cancellation polls.
const stopStride = 64

// EnumerateStop is EnumerateWith with a cancellation hook: stop (when
// non-nil) is polled every stopStride start times of the outer sweep.
// done is false when the sink stopped the enumeration early or stop fired;
// cancelled reports which of the two it was.
//
// The set-up is O(m + tlen) for the m edges in the skyline's edge range:
// only each edge's first window is placed before the sweep, and a later
// window is read when the sweep reaches its activation time. A sink that
// stops after the first cores therefore pays for the start times swept
// and the windows activated so far, not for the whole skyline.
//
// tkc:cancellable
func EnumerateStop(g *tgraph.Graph, ecs *vct.ECS, sink Sink, s *Scratch, stop func() bool) (done, cancelled bool) {
	return enumerate(whole(ecs), sink, s, stop)
}

// EnumerateWindowStop is EnumerateStop over the skyline of the window w
// cut from ecs in place ("Cut" in the vct package documentation): each of
// w's edges starts at its first window that starts at or after w.Start
// and stops before its first window that ends after w.End. w must lie
// inside ecs.Range, and g must be the graph state ecs was built on. It
// emits what EnumerateStop emits over a build of w, cores and edge order
// alike, after an O(m_w log d) set-up for the m_w edges of w and their
// skylines of at most d windows. w == ecs.Range is EnumerateStop.
//
// tkc:cancellable
func EnumerateWindowStop(g *tgraph.Graph, ecs *vct.ECS, w tgraph.Window, sink Sink, s *Scratch, stop func() bool) (done, cancelled bool) {
	return enumerate(cutTo(g, ecs, w), sink, s, stop)
}

// span is the part of a skyline an enumeration or a count reads: the
// window w, ecs.Range or a window inside it, and w's edges [lo, hi).
type span struct {
	ecs    *vct.ECS
	w      tgraph.Window
	lo, hi tgraph.EID
}

// whole is the span of ecs's own range.
func whole(ecs *vct.ECS) span {
	lo, hi := ecs.EdgeRange()
	return span{ecs, ecs.Range, lo, hi}
}

// cutTo is the span of the window w inside ecs's range, whose edges g
// holds; it panics when w does not lie inside the range.
func cutTo(g *tgraph.Graph, ecs *vct.ECS, w tgraph.Window) span {
	if w == ecs.Range {
		return whole(ecs)
	}
	if !w.Valid() || !ecs.Range.Contains(w) {
		panic(fmt.Sprintf("enum: window %v outside the skyline's range %v", w, ecs.Range))
	}
	lo, hi := g.EdgesIn(w)
	return span{ecs, w, lo, hi}
}

// run returns the windows of slot i's edge (edge lo+i-1) that lie inside
// [first, w.End], as indices into ecs.Flat. The set-up loops read the
// offsets themselves when that is all of the edge's windows, so the
// whole-range path pays no call per edge.
func (sp span) run(i int, first tgraph.TS) (a, b int32) {
	return sp.ecs.Cut(sp.lo+tgraph.EID(i-1), tgraph.Window{Start: first, End: sp.w.End})
}

// enumerate is EnumerateStop over the span sp.
func enumerate(sp span, sink Sink, s *Scratch, stop func() bool) (done, cancelled bool) {
	w := sp.w
	tlen := int(w.End-w.Start) + 1
	m := int(sp.hi - sp.lo)
	off, wins := sp.ecs.Flat()
	cut := w != sp.ecs.Range
	sb := uint(bits.Len(uint(m))) // ord = end<<sb | slot, slots 1..m

	// Every edge's first window activates at Ts (Definition 6). File each
	// slot in the calendar under its window's start, and counting-sort the
	// first batch by end; keys are staged in slot order, so ties stay in
	// eid order and the batch comes out in canonical (end, eid) order.
	slots := ds.Grow(s.slots, m+1)
	slots[0] = slot{ord: math.MaxUint64} // the sentinel ranks after every window
	cal := ds.GrowZero(s.cal, tlen)
	cnt := ds.GrowZero(s.cnt, tlen+1)
	tmp := s.tmp[:0]
	n := 0 // windows in a cut's runs
	for i := 1; i <= m; i++ {
		a, b := off[i-1], off[i]
		if cut {
			a, b = sp.run(i, w.Start)
			n += int(b - a)
		}
		if a == b {
			continue
		}
		win := wins[a]
		st, end := int(win.Start-w.Start), int(win.End-w.Start)
		ord := uint64(end)<<sb | uint64(i)
		x := &slots[i]
		x.ord, x.start, x.cal, x.cur, x.lim = ord, win.Start, cal[st], a, b
		cal[st] = int32(i)
		cnt[end+1]++
		tmp = append(tmp, ord)
	}
	s.windows = sp.ecs.Size()
	if cut {
		s.windows = n
	}
	for t := 0; t < tlen; t++ {
		cnt[t+1] += cnt[t]
	}
	batch := ds.Grow(s.batch, len(tmp))
	for _, k := range tmp {
		end := k >> sb
		batch[cnt[end]] = k
		cnt[end]++
	}

	edgeBuf := s.edgeBuf[:0]
	defer func() { s.slots, s.cal, s.cnt, s.batch, s.tmp, s.edgeBuf = slots, cal, cnt, batch, tmp, edgeBuf }()

	base := sp.lo - 1 // slot i holds edge base+i
	for so := 0; so < tlen; so++ {
		if stop != nil && so&(stopStride-1) == 0 && stop() {
			return false, true
		}
		t := w.Start + tgraph.TS(so)

		// Remove the windows whose start time has passed (lines 14-16)
		// and activate each such edge's next window, which by Definition
		// 6 becomes live exactly now. Sorting the packed ord keys puts the
		// activation batch in (end, eid) order.
		if so > 0 {
			batch = batch[:0]
			for sl := cal[so-1]; sl != 0; {
				x := &slots[sl]
				nextCal := x.cal
				slots[x.prev].next = x.next
				slots[x.next].prev = x.prev
				if c := x.cur + 1; c < x.lim {
					win := wins[c]
					st := int(win.Start - w.Start)
					x.cur = c
					x.start = win.Start
					x.ord = uint64(win.End-w.Start)<<sb | uint64(sl)
					x.cal = cal[st]
					cal[st] = sl
					batch = append(batch, x.ord)
				}
				sl = nextCal
			}
			slices.Sort(batch)
		}

		// Insert newly active windows with a single merge scan (lines
		// 17-22); the batch ascends by (end, eid), so h never moves
		// backwards. Breaking end ties by eid keeps the whole list in
		// canonical (end, eid) order: the emitted edge order then depends
		// only on the skyline content, not on activation history.
		h := int32(0)
		for _, k := range batch {
			sl := int32(k & (1<<sb - 1))
			for nx := slots[h].next; slots[nx].ord < k; nx = slots[h].next {
				h = nx
			}
			nx := slots[h].next
			slots[sl].prev = h
			slots[sl].next = nx
			slots[h].next = sl
			slots[nx].prev = sl
			h = sl
		}

		// No minimal core window starts at t: no temporal k-core has this
		// start time (Lemma 4).
		if cal[so] == 0 {
			continue
		}

		// AS-Output (Algorithm 4): walk L_t in ascending end order,
		// accumulating edges; once a window starting exactly at t has been
		// seen (Lemma 6) every equal-end run boundary is the TTI end of a
		// distinct temporal k-core.
		edgeBuf = edgeBuf[:0]
		valid := false
		for cur := slots[0].next; cur != 0; {
			x := &slots[cur]
			edgeBuf = append(edgeBuf, base+tgraph.EID(cur))
			if x.start == t {
				valid = true
			}
			nx := x.next
			if valid && slots[nx].ord>>sb != x.ord>>sb {
				if !sink.Emit(tgraph.Window{Start: t, End: w.Start + tgraph.TS(x.ord>>sb)}, edgeBuf) {
					return false, false
				}
			}
			cur = nx
		}
	}
	return true, false
}
