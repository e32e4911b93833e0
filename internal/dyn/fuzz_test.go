package dyn_test

import (
	"fmt"
	"testing"

	"temporalkcore/internal/core"
	"temporalkcore/internal/dyn"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/tgraph"
)

// decodeStream turns fuzz bytes into a time-ordered edge stream plus a
// batch-split recipe. Byte 0 sizes the vertex universe, byte 1 picks the
// number of append batches; each following byte triple is one edge whose
// third byte advances time by 0-2 ranks, so any split point is appendable.
func decodeStream(data []byte) (edges []tgraph.RawEdge, batches int) {
	if len(data) < 8 {
		return nil, 0
	}
	n := int64(data[0])%14 + 3
	batches = int(data[1])%4 + 1
	t := int64(1)
	for i := 2; i+2 < len(data); i += 3 {
		t += int64(data[i+2] % 3)
		edges = append(edges, tgraph.RawEdge{
			U:    int64(data[i]) % n,
			V:    int64(data[i+1]) % n,
			Time: t,
		})
	}
	return edges, batches
}

// countAll renders the full observable result of count queries for a range
// of k values, plus the index's own view, into one string, so equivalence
// checks are byte-exact.
func countAll(g *tgraph.Graph, d *dyn.Index) (string, error) {
	out := ""
	w := g.FullWindow()
	for k := 1; k <= 3; k++ {
		sink := &enum.CountSink{}
		st, err := core.Query(g, k, w, sink, core.Options{})
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf("k=%d cores=%d edges=%d vct=%d ecs=%d\n", k, sink.Cores, sink.EdgeTotal, st.VCTSize, st.ECSSize)
	}
	if d != nil {
		out += "dyn " + countView(d.View()) + "\n"
	}
	return out, nil
}

// FuzzAppendEquivalence feeds random edge batches through the append path
// (graph Append + dyn.Index patching) and requires byte-identical count
// results versus building the same graph in one shot.
func FuzzAppendEquivalence(f *testing.F) {
	f.Add([]byte("\x05\x02\x01\x02\x01\x02\x03\x01\x01\x03\x02\x03\x01\x00\x04\x05\x02\x01"))
	f.Add([]byte{9, 3, 1, 2, 0, 2, 3, 1, 3, 1, 0, 4, 5, 2, 1, 2, 2, 0, 3, 4, 1, 4, 5, 0, 5, 6, 2})
	f.Add([]byte{200, 250, 100, 101, 1, 102, 103, 0, 100, 102, 1, 101, 103, 0, 100, 103, 2, 101, 102, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, batches := decodeStream(data)
		if len(edges) < 4 {
			return
		}
		cut := len(edges) / (batches + 1)
		if cut == 0 {
			return
		}

		// Append path: prefix build, then batches through Append with a
		// dyn.Index refreshed after each batch.
		g, err := tgraph.FromRawEdges(edges[:cut])
		if err != nil {
			return // prefix can be empty of usable edges (all self loops)
		}
		d, err := dyn.New(g, 2, g.FullWindow())
		if err != nil {
			t.Fatalf("dyn.New: %v", err)
		}
		for i := cut; i < len(edges); i += cut {
			j := i + cut
			if j > len(edges) {
				j = len(edges)
			}
			if _, err := g.Append(edges[i:j]); err != nil {
				t.Fatalf("Append(%d:%d): %v", i, j, err)
			}
			if err := d.RefreshAt(g, g.FullWindow(), nil); err != nil {
				t.Fatalf("Refresh: %v", err)
			}
		}
		got, err := countAll(g, d)
		if err != nil {
			t.Fatalf("append path query: %v", err)
		}

		// One-shot path on an identically parameterised fresh build.
		gFull, err := tgraph.FromRawEdges(edges)
		if err != nil {
			t.Fatalf("one-shot build: %v", err)
		}
		dFull, err := dyn.New(gFull, 2, gFull.FullWindow())
		if err != nil {
			t.Fatalf("one-shot dyn.New: %v", err)
		}
		want, err := countAll(gFull, dFull)
		if err != nil {
			t.Fatalf("one-shot query: %v", err)
		}

		if got != want {
			t.Fatalf("append path diverges from one-shot build\n--- append ---\n%s--- one-shot ---\n%s", got, want)
		}
	})
}
