package enum

import (
	"math/bits"
	"runtime"

	"temporalkcore/internal/ds"
	"temporalkcore/internal/spare"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// endAgg aggregates the live windows whose end offset falls in one
// segment-tree node's range: cnt windows with d distinct ends, and s, the
// sum over those ends e of the number of the node's windows with end <= e.
type endAgg struct {
	cnt, d int32
	s      int64
}

// join combines the aggregates of two adjacent ranges, l before r: every
// distinct end of r also counts l's windows.
func join(l, r endAgg) endAgg {
	return endAgg{cnt: l.cnt + r.cnt, d: l.d + r.d, s: l.s + r.s + int64(r.d)*int64(l.cnt)}
}

// leafAgg is the aggregate of one end offset holding c live windows.
func leafAgg(c int32) endAgg {
	return endAgg{cnt: c, d: min(c, 1), s: int64(c)}
}

// CountStop returns what a CountSink would tally from EnumerateStop over
// ecs — the number of distinct temporal k-cores and |R|, their summed
// edge counts — without walking L_t. It is an extension beyond the paper:
// the paper's Enum lists cores in O(|R|), and a count needs only two
// aggregates per start time t. Let e* be the smallest end among the live
// windows starting at t (the first boundary AS-Output emits at, Lemma 6).
// The cores at t are the distinct live ends >= e*, and |R_t| sums, over
// those ends e, the number of live windows with end <= e.
//
// The sweep keeps EnumerateStop's calendar and per-edge window cursor, and
// a segment tree over end offsets in place of L_t, so an activation is a
// leaf decrement and a leaf increment. The cost is O(m + |ECS| log tlen +
// tlen) for m edges in range and tlen start times, independent of |R|.
//
// The per-start-time totals depend only on the windows live at t, and an
// edge's live window at t is its first window starting at or after t, so
// the start range splits anywhere. At GOMAXPROCS >= 2, on a skyline large
// enough (see countSplitAt), CountStop sweeps [Ts, mid−1] on s and
// [mid, Te] on a helper goroutine with a second Scratch kept in s, and
// sums the two; a warm s allocates nothing either way. stop (when
// non-nil) is polled every stopStride start times by each sweep, so two
// goroutines may poll it at once and it must be safe for concurrent use,
// as a context's Done check is. cancelled reports that it fired, with
// the counts of the start times swept so far. Both sweeps end before
// CountStop returns, on every path, and a panic in the helper's sweep is
// raised again on the caller's goroutine.
//
// tkc:cancellable
func CountStop(ecs *vct.ECS, s *Scratch, stop func() bool) (cores, edges int64, cancelled bool) {
	return countSplit(ecs, s, stop, countSplitAt(ecs))
}

// minSplitWindows is the smallest skyline, in windows, whose count splits.
// Below it the helper's start-up and the set-up both sweeps repeat cost
// about as much as the share of the sweep the helper takes over: on the
// paper-scale CM replica a split count broke even at about 3,000 windows.
const minSplitWindows = 4000

// countSplitAt picks the start time a count over ecs splits at, or 0 for
// one sweep: at GOMAXPROCS 1, where the two sweeps could not run at once,
// and when the skyline is too small to split. The first sweep loads every
// edge and the whole end range, so the split sits at 9/20 of the start
// times, where the two sweeps took equally long on the paper-scale CM
// replica's Figure 6 windows.
func countSplitAt(ecs *vct.ECS) tgraph.TS {
	w := ecs.Range
	if runtime.GOMAXPROCS(0) < 2 || ecs.Size() < minSplitWindows || w.Start == w.End {
		return 0
	}
	return w.Start + tgraph.TS(max(1, int(w.End-w.Start+1)*9/20))
}

// countSplit sums the sweeps of the start times [Ts, mid−1] on s and
// [mid, Te] on a helper goroutine with a Scratch of its own; mid == 0
// sweeps [Ts, Te] once. Both sweeps end before either Scratch is reused,
// on every path.
func countSplit(ecs *vct.ECS, s *Scratch, stop func() bool, mid tgraph.TS) (cores, edges int64, cancelled bool) {
	w := ecs.Range
	if mid == 0 {
		return sweep(ecs, s, stop, w.Start, w.End)
	}
	if s.half == nil {
		s.half = &helper{}
		s.half.Bind(s.half.sweep)
	}
	h := s.half
	h.ecs, h.stop, h.from = ecs, stop, mid
	h.Start()
	defer h.Join()
	cores, edges, cancelled = sweep(ecs, s, stop, w.Start, mid-1)
	h.Wait()
	return cores + h.cores, edges + h.edges, cancelled || h.cancelled
}

// helper is the later sweep of a split count: the Scratch it sweeps on,
// the start times it sweeps, and its totals.
type helper struct {
	Scratch
	spare.Helper

	ecs          *vct.ECS
	stop         func() bool
	from         tgraph.TS
	cores, edges int64
	cancelled    bool
}

// sweep is the helper's call: the sweep of the start times [h.from, Te].
// It drops its references to the skyline and the hook, so a Scratch kept
// for reuse does not keep them alive.
func (h *helper) sweep() {
	ecs, stop := h.ecs, h.stop
	h.ecs, h.stop = nil, nil
	h.cores, h.edges, h.cancelled = sweep(ecs, &h.Scratch, stop, h.from, ecs.Range.End)
}

// sweep counts the cores and |R| of the start times [first, last]. Each
// edge starts at its first window that starts at or after first, the one
// live at first (Definition 6); the tree spans the end offsets from first
// to Te.
func sweep(ecs *vct.ECS, s *Scratch, stop func() bool, first, last tgraph.TS) (cores, edges int64, cancelled bool) {
	tlen := int(ecs.Range.End-first) + 1
	lo, hi := ecs.EdgeRange()
	m := int(hi - lo)
	off, wins := ecs.Flat()

	// The tree has a power-of-two number of leaves, one per end offset;
	// node i's children are 2i and 2i+1, and node 1 aggregates every live
	// window. Load each edge's window live at first as leaf counts and
	// build the tree in O(tlen).
	leaves := 1 << bits.Len(uint(tlen-1))
	tree := ds.GrowZero(s.tree, 2*leaves)
	slots := ds.Grow(s.slots, m+1)
	cal := ds.GrowZero(s.cal, tlen)
	defer func() { s.slots, s.cal, s.tree = slots, cal, tree }()
	for i := 1; i <= m; i++ {
		a, b := off[i-1], off[i]
		for a < b && wins[a].Start < first {
			a++
		}
		if a == b {
			continue
		}
		win := wins[a]
		slots[i].cur, slots[i].lim = a, b
		file(slots, cal, wins, int32(i), int(win.Start-first))
		tree[leaves+int(win.End-first)].cnt++
	}
	for i := leaves; i < 2*leaves; i++ {
		tree[i] = leafAgg(tree[i].cnt)
	}
	for i := leaves - 1; i > 0; i-- {
		tree[i] = join(tree[2*i], tree[2*i+1])
	}

	for so := 0; so <= int(last-first); so++ {
		if stop != nil && so&(stopStride-1) == 0 && stop() {
			return cores, edges, true
		}

		// Retire the windows whose start has passed and activate each such
		// edge's next window, exactly as EnumerateStop does.
		if so > 0 {
			for sl := cal[so-1]; sl != 0; {
				x := &slots[sl]
				nextCal := x.cal
				from := leaves + int(wins[x.cur].End-first)
				if c := x.cur + 1; c < x.lim {
					win := wins[c]
					x.cur = c
					file(slots, cal, wins, sl, int(win.Start-first))
					move(tree, from, leaves+int(win.End-first))
				} else {
					move(tree, from, 0)
				}
				sl = nextCal
			}
		}

		// No live window starts at t: no core does either (Lemma 4).
		h := cal[so]
		if h == 0 {
			continue
		}
		estar := int(wins[slots[h].cur].End - first)

		// The cores at t are the distinct ends from e* on, and each
		// counts every live window up to its end, the prefix [0, e*)
		// included. The root counts the same for every distinct end, so
		// the suffix's share is the root minus the prefix's own aggregate.
		var pre endAgg
		for i := leaves + estar; i > 1; i >>= 1 {
			if i&1 == 1 {
				pre = join(tree[i-1], pre)
			}
		}
		cores += int64(tree[1].d - pre.d)
		edges += tree[1].s - pre.s
	}
	return cores, edges, false
}

// file puts slot sl, whose live window starts at offset st, in that start's
// calendar bucket. The bucket's head keeps the smallest end, so e* is read
// off it in O(1); the rest of the bucket is in no particular order.
func file(slots []slot, cal []int32, wins []tgraph.Window, sl int32, st int) {
	h := cal[st]
	if h != 0 && wins[slots[h].cur].End <= wins[slots[sl].cur].End {
		slots[sl].cal = slots[h].cal
		slots[h].cal = sl
		return
	}
	slots[sl].cal = h
	cal[st] = sl
}

// move takes one live window off leaf i and puts one on leaf j (j == 0:
// none), then refreshes the aggregates above both leaves, sharing the walk
// from their lowest common ancestor up.
func move(tree []endAgg, i, j int) {
	tree[i] = leafAgg(tree[i].cnt - 1)
	if j != 0 {
		tree[j] = leafAgg(tree[j].cnt + 1)
		for i, j = i>>1, j>>1; i != j; i, j = i>>1, j>>1 {
			tree[i] = join(tree[2*i], tree[2*i+1])
			tree[j] = join(tree[2*j], tree[2*j+1])
		}
	} else {
		i >>= 1
	}
	for ; i > 0; i >>= 1 {
		tree[i] = join(tree[2*i], tree[2*i+1])
	}
}
