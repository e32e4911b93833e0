package vct_test

import (
	"slices"
	"testing"

	"temporalkcore/internal/kcore"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// FuzzCoreTimes decodes the fuzz input as an edge list and checks the
// fixed-point core times against from-scratch peeling for every vertex and
// start time of the query window.
//
// kb's low two bits pick k; its upper six bits trim the graph's full
// window (three bits off each end), so the builder's window projection
// differs from the whole-history adjacency. The zero trim of the seeds is
// the full window. The first byte picks a start time to split the build
// at, and the split build must match the serial one entry for entry and
// window for window. The full range's tables cut to the window must match
// the window's build too: its core times at every start time, read as ∞
// above the window's end, its |VCT|, and every edge's run of windows.
func FuzzCoreTimes(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 3, 2, 1, 3, 3}, byte(2))
	f.Add([]byte{0, 1, 5, 1, 2, 5, 0, 2, 5, 2, 3, 6}, byte(2))
	f.Add([]byte{0, 1, 1, 1, 2, 2, 0, 2, 3, 0, 1, 4, 1, 2, 5, 0, 2, 6, 2, 3, 7, 0, 3, 8}, byte(1<<5|1<<2|1))

	f.Fuzz(func(t *testing.T, data []byte, kb byte) {
		if len(data) < 3 || len(data) > 60 {
			return
		}
		var b tgraph.Builder
		for i := 0; i+2 < len(data); i += 3 {
			u := int64(data[i] % 10)
			v := int64(data[i+1] % 10)
			ts := int64(data[i+2]%8) + 1
			if u == v {
				continue
			}
			b.Add(u, v, ts)
		}
		g, err := b.Build()
		if err != nil {
			return
		}
		k := int(kb&3) + 1
		full := g.FullWindow()
		w := tgraph.Window{Start: full.Start + tgraph.TS(kb>>2&7), End: full.End - tgraph.TS(kb>>5)}
		if w.Start > w.End {
			w = full
		}
		ix, ecs, err := vct.Build(g, k, w)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if w.End > w.Start {
			mid := w.Start + 1 + tgraph.TS(data[0])%(w.End-w.Start)
			six, secs, err := vct.BuildSplit(g, k, w, &vct.Scratch{}, nil, mid)
			if err != nil {
				t.Fatalf("BuildSplit at %d: %v", mid, err)
			}
			sameIndex(t, g, ix, six)
			sameECS(t, ecs, secs)
		}
		sameCut(t, g, k, w, ix, ecs)
		p := kcore.NewPeeler(g)
		for u := tgraph.VID(0); u < tgraph.VID(g.NumVertices()); u++ {
			for ts := w.Start; ts <= w.End; ts++ {
				want := tgraph.InfTime
				for te := ts; te <= w.End; te++ {
					if p.CoreOfWindow(k, tgraph.Window{Start: ts, End: te}).InCore[u] {
						want = te
						break
					}
				}
				if got := ix.CoreTime(u, ts); got != want {
					t.Fatalf("CT_%d(v%d) = %d, want %d (k=%d)", ts, u, got, want, k)
				}
			}
		}
	})
}

// sameCut builds g's full range at k and checks its tables cut to w
// against ix and ecs, the build of w (see sameCutOf).
func sameCut(t *testing.T, g *tgraph.Graph, k int, w tgraph.Window, ix *vct.Index, ecs *vct.ECS) {
	t.Helper()
	fix, fecs, err := vct.Build(g, k, g.FullWindow())
	if err != nil {
		t.Fatalf("Build of the full range: %v", err)
	}
	sameCutOf(t, g, w, fix, fecs, ix, ecs)
}

// sameCutOf checks the full range's tables fix and fecs cut to w against
// ix and ecs, the build of w: core times at every start time, read as ∞
// above w's end, |VCT|, and every edge's run of windows.
func sameCutOf(t *testing.T, g *tgraph.Graph, w tgraph.Window, fix *vct.Index, fecs *vct.ECS, ix *vct.Index, ecs *vct.ECS) {
	t.Helper()
	for u := tgraph.VID(0); u < tgraph.VID(g.NumVertices()); u++ {
		for ts := w.Start; ts <= w.End; ts++ {
			got := fix.CoreTime(u, ts)
			if got > w.End {
				got = tgraph.InfTime
			}
			if want := ix.CoreTime(u, ts); got != want {
				t.Fatalf("cut to %v: CT_%d(v%d) = %d, the window's build has %d (k=%d)", w, ts, u, got, want, ix.K)
			}
		}
	}
	if got := fix.CutSize(w); got != ix.Size() {
		t.Fatalf("cut to %v: |VCT| = %d, the window's build has %d (k=%d)", w, got, ix.Size(), ix.K)
	}
	lo, hi := g.EdgesIn(w)
	if elo, ehi := ecs.EdgeRange(); elo != lo || ehi != hi {
		t.Fatalf("window build covers edges [%d,%d), the window holds [%d,%d)", elo, ehi, lo, hi)
	}
	_, wins := fecs.Flat()
	for e := lo; e < hi; e++ {
		a, b := fecs.Cut(e, w)
		if got, want := wins[a:b], ecs.Windows(e); !slices.Equal(got, want) {
			t.Fatalf("cut to %v: edge %d has windows %v, the window's build %v (k=%d)", w, e, got, want, ix.K)
		}
	}
}
