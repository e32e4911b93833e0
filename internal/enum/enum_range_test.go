package enum_test

import (
	"math/rand"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// rawSink records emissions in exact emission order without sorting, so
// tests can assert the canonical output order byte-for-byte.
type rawSink struct {
	cores []enum.Core
}

func (s *rawSink) Emit(tti tgraph.Window, eids []tgraph.EID) bool {
	cp := make([]tgraph.EID, len(eids))
	copy(cp, eids)
	s.cores = append(s.cores, enum.Core{TTI: tti, Edges: cp})
	return true
}

// TestEnumerateCanonicalOrder locks the (end, eid) list order: a core's
// edges are emitted ascending by (window end, edge id), so two
// enumerations that reach the same skyline content through different
// activation histories produce byte-identical output.
func TestEnumerateCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 12, 90, 10)
		_, ecs, err := vct.Build(g, 2, tgraph.Window{Start: 1, End: g.TMax()})
		if err != nil {
			t.Fatalf("vct.Build: %v", err)
		}
		var sink rawSink
		if done, _ := enum.EnumerateStop(g, ecs, &sink, enum.GetScratch(), nil); !done {
			t.Fatal("enumeration stopped early")
		}
		// At tightest start t, the active window of an edge is its first
		// skyline window with Start >= t (each edge contributes at most one
		// node to L_t), so that window's end determines the canonical rank.
		activeEnd := func(eid tgraph.EID, at tgraph.TS) tgraph.TS {
			for _, win := range ecs.Windows(eid) {
				if win.Start >= at {
					return win.End
				}
			}
			t.Fatalf("edge %d has no window starting at or after %d", eid, at)
			return 0
		}
		for _, c := range sink.cores {
			prevEnd := tgraph.TS(-1)
			prevEID := tgraph.EID(0)
			for i, eid := range c.Edges {
				end := activeEnd(eid, c.TTI.Start)
				if i > 0 && (end < prevEnd || (end == prevEnd && eid <= prevEID)) {
					t.Fatalf("core %v: edges not in canonical (end, eid) order", c.TTI)
				}
				prevEnd, prevEID = end, eid
			}
		}
	}
}
