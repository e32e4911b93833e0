package vct

import "temporalkcore/internal/tgraph"

// CutSize returns |VCT| of the window w, which must lie inside ix.Range,
// as a build of w records it ("Cut" in the package documentation): per
// vertex, the entry in force at w.Start when its core time is at most
// w.End, each later entry that starts inside w with a core time at most
// w.End, and one {s, ∞} entry where the core time first passes w.End. A
// vertex's core times rise with its start times, so that is a binary
// search per vertex and a scan of the entries w's build holds.
func (ix *Index) CutSize(w tgraph.Window) int {
	if w == ix.Range {
		return ix.Size()
	}
	n := 0
	for u := range ix.NumVertices() {
		ents := ix.Entries(tgraph.VID(u))
		// ents[i-1] is the entry in force at w.Start: the last one
		// starting at or before it.
		i, hi := 0, len(ents)
		for i < hi {
			if h := int(uint(i+hi) >> 1); ents[h].Start > w.Start {
				hi = h
			} else {
				i = h + 1
			}
		}
		for j := max(i-1, 0); j < len(ents) && ents[j].Start <= w.End; j++ {
			if ents[j].CT > w.End {
				if j >= i {
					n++ // the core time leaves w at ents[j].Start
				}
				break
			}
			n++
		}
	}
	return n
}

// Cut returns the run of edge eid's skyline windows that lie inside w,
// which must lie inside e.Range, as indices [a, b) into Flat's windows:
// from the edge's first window that starts at or after w.Start to its
// first window that ends after w.End. An edge's windows rise in start and
// in end, so the run is contiguous, and it is the edge's skyline in w
// ("Cut" in the package documentation): two binary searches. eid must
// lie in EdgeRange.
func (e *ECS) Cut(eid tgraph.EID, w tgraph.Window) (a, b int32) {
	i := eid - e.lo
	a, b = e.off[i], e.off[i+1]
	if w.Start > e.Range.Start {
		for hi := b; a < hi; {
			if h := int32(uint32(a+hi) >> 1); e.wins[h].Start < w.Start {
				a = h + 1
			} else {
				hi = h
			}
		}
	}
	if w.End < e.Range.End {
		for lo := a; lo < b; {
			if h := int32(uint32(lo+b) >> 1); e.wins[h].End > w.End {
				b = h
			} else {
				lo = h + 1
			}
		}
	}
	return a, b
}
