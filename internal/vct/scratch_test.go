package vct_test

import (
	"math/rand"
	"testing"

	"temporalkcore/internal/bench"
	"temporalkcore/internal/paperex"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

func sameIndex(t *testing.T, g *tgraph.Graph, a, b *vct.Index) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("index sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for u := 0; u < g.NumVertices(); u++ {
		ea, eb := a.Entries(tgraph.VID(u)), b.Entries(tgraph.VID(u))
		if len(ea) != len(eb) {
			t.Fatalf("v%d: %d entries vs %d", u, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("v%d entry %d: %v vs %v", u, i, ea[i], eb[i])
			}
		}
	}
}

func sameECS(t *testing.T, a, b *vct.ECS) {
	t.Helper()
	alo, ahi := a.EdgeRange()
	blo, bhi := b.EdgeRange()
	if alo != blo || ahi != bhi || a.Size() != b.Size() {
		t.Fatalf("skyline shape differs: [%d,%d) size %d vs [%d,%d) size %d", alo, ahi, a.Size(), blo, bhi, b.Size())
	}
	for e := alo; e < ahi; e++ {
		wa, wb := a.Windows(e), b.Windows(e)
		if len(wa) != len(wb) {
			t.Fatalf("edge %d: %d windows vs %d", e, len(wa), len(wb))
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("edge %d window %d: %v vs %v", e, i, wa[i], wb[i])
			}
		}
	}
}

// TestBuildScratchMatchesBuild drives one Scratch through many different
// (graph, k, window) builds — shrinking, growing, shifting, and alternating
// between two graphs with different pair counts, as the shared scratch pool
// does — and checks each result against a fresh Build. This is the reuse
// contract: stale state from an earlier, larger query or another graph must
// never leak into a later one.
func TestBuildScratchMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	graphs := []*tgraph.Graph{paperex.Graph(), randomGraph(r, 30, 150, 12)}
	if graphs[0].NumPairs() == graphs[1].NumPairs() {
		t.Fatal("the two graphs must differ in pair count")
	}
	s := &vct.Scratch{}
	for trial := 0; trial < 200; trial++ {
		g := graphs[trial%len(graphs)]
		tmax := int(g.TMax())
		k := 1 + r.Intn(4)
		a := 1 + r.Intn(tmax)
		b := 1 + r.Intn(tmax)
		if a > b {
			a, b = b, a
		}
		w := tgraph.Window{Start: tgraph.TS(a), End: tgraph.TS(b)}
		ix, ecs, err := vct.BuildScratch(g, k, w, s)
		if err != nil {
			t.Fatalf("BuildScratch(k=%d, %v): %v", k, w, err)
		}
		wantIx, wantECS, err := vct.Build(g, k, w)
		if err != nil {
			t.Fatalf("Build(k=%d, %v): %v", k, w, err)
		}
		sameIndex(t, g, wantIx, ix)
		sameECS(t, wantECS, ecs)
	}
}

// TestBuildScratchPooled checks the pool round trip: scratches cycled
// through Get/Put keep producing correct results.
func TestBuildScratchPooled(t *testing.T) {
	g := paperex.Graph()
	w := g.FullWindow()
	wantIx, wantECS, err := vct.Build(g, paperex.K, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s := vct.GetScratch()
		ix, ecs, err := vct.BuildScratch(g, paperex.K, w, s)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, g, wantIx, ix)
		sameECS(t, wantECS, ecs)
		vct.PutScratch(s)
	}
}

// TestBuildScratchInvalid checks that validation errors leave the scratch
// reusable.
func TestBuildScratchInvalid(t *testing.T) {
	g := paperex.Graph()
	s := &vct.Scratch{}
	if _, _, err := vct.BuildScratch(g, 0, g.FullWindow(), s); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := vct.BuildScratch(g, 2, tgraph.Window{Start: 1, End: g.TMax() + 1}, s); err == nil {
		t.Fatal("out-of-range window accepted")
	}
	ix, ecs, err := vct.BuildScratch(g, paperex.K, g.FullWindow(), s)
	if err != nil {
		t.Fatal(err)
	}
	wantIx, wantECS, _ := vct.Build(g, paperex.K, g.FullWindow())
	sameIndex(t, g, wantIx, ix)
	sameECS(t, wantECS, ecs)
}

// BenchmarkBuildScratchReuse is the zero-alloc contract of the engine: a
// warm Scratch must make repeated CoreTime builds allocation-free, split
// or not. The
// full-window cases stress the fixed point; CM-fig6 is one query at the
// shape of the paper's Figure 6 (the paper-scale CM replica, k = 30% kmax,
// a range of 10% of tmax), where the window's projection is a small part
// of the graph.
func BenchmarkBuildScratchReuse(b *testing.B) {
	for _, code := range []string{"CM", "PL"} {
		b.Run(code, func(b *testing.B) {
			g, k := benchGraph(b, code, 5000)
			benchScratchReuse(b, g, k, g.FullWindow())
		})
	}
	b.Run("CM-fig6", func(b *testing.B) {
		d, err := bench.LoadDataset("CM", 59835, 42)
		if err != nil {
			b.Fatal(err)
		}
		k := d.K(30)
		ws := d.Queries(k, 10, 1, 1)
		if len(ws) == 0 {
			b.Fatal("no 10% window holds a k-core")
		}
		benchScratchReuse(b, d.G, k, ws[0])
	})
}

func benchScratchReuse(b *testing.B, g *tgraph.Graph, k int, w tgraph.Window) {
	s := &vct.Scratch{}
	if _, _, err := vct.BuildScratch(g, k, w, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vct.BuildScratch(g, k, w, s); err != nil {
			b.Fatal(err)
		}
	}
}
