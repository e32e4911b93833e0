package vct_test

import (
	"math/rand"
	"testing"

	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestCutMatchesWindowBuild cuts the full range's tables, built serially
// and split at a start time, to random windows of random graphs, and
// checks each cut against the window's own build (see sameCut).
func TestCutMatchesWindowBuild(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 16; trial++ {
		g := randomGraph(r, 10+r.Intn(15), 80+r.Intn(150), 15+r.Intn(25))
		k := 1 + r.Intn(4)
		full := g.FullWindow()
		fix, fecs, err := vct.BuildSplit(g, k, full, &vct.Scratch{}, nil, full.Start+1+tgraph.TS(r.Intn(int(full.End-full.Start))))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			a := 1 + r.Intn(int(g.TMax()))
			w := tgraph.Window{Start: tgraph.TS(a), End: tgraph.TS(a + r.Intn(int(g.TMax())-a+1))}
			ix, ecs, err := vct.Build(g, k, w)
			if err != nil {
				t.Fatal(err)
			}
			sameCutOf(t, g, w, fix, fecs, ix, ecs)
		}
	}
}
