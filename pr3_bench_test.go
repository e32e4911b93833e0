package temporalkcore_test

import (
	"context"
	"testing"

	tkc "temporalkcore"
	"temporalkcore/internal/bench"
)

// cmReplica loads the benchEdges-scale CM replica as a public graph plus a
// seeded 10% query window — the largest window on which full
// materialisation is still feasible (at full range the CM replica's |R| is
// ~10.8 billion edges, ~250 GB materialised, which is precisely the
// asymmetry the streaming iterator exists for).
func cmReplica(b *testing.B) (g *tkc.Graph, k int, ws, we, lo, hi int64) {
	b.Helper()
	d, err := bench.LoadDataset("CM", benchEdges, 42)
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]tkc.Edge, 0, d.G.NumEdges())
	for _, te := range d.G.Edges() {
		raw = append(raw, tkc.Edge{U: d.G.Label(te.U), V: d.G.Label(te.V), Time: d.G.RawTime(te.T)})
	}
	g, err = tkc.NewGraph(raw)
	if err != nil {
		b.Fatal(err)
	}
	k = d.K(30)
	w := d.Queries(k, 10, 1, 7)[0]
	ws, we = d.G.RawWindow(w)
	lo, hi = g.TimeSpan()
	return g, k, ws, we, lo, hi
}

// BenchmarkIteratorEarlyStop compares the v2 iterator's early-stop path
// against full materialisation on the CM replica: First pays the CoreTime
// phase plus O(1) enumeration, while Collect pays CoreTime plus the full
// O(|R|) result. This is the output-proportional claim of the paper
// surfaced as an API property: breaking the loop is the push-down.
func BenchmarkIteratorEarlyStop(b *testing.B) {
	g, k, ws, we, lo, hi := cmReplica(b)
	ctx := context.Background()

	b.Run("First", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := g.Query(k).Window(ws, we).First(ctx); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("SeqFirst10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, err := range g.Query(k).Window(ws, we).Seq(ctx) {
				if err != nil {
					b.Fatal(err)
				}
				if n++; n == 10 {
					break
				}
			}
		}
	})
	b.Run("CollectAll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cores, err := g.Query(k).Window(ws, we).Collect(ctx)
			if err != nil || len(cores) == 0 {
				b.Fatalf("%d cores, err=%v", len(cores), err)
			}
		}
	})
	// Full-range references: First streams its one core out of a window
	// whose |R| (~10.8B edges on this replica) could never be materialised;
	// Count streams the whole result without retaining it.
	b.Run("FullRangeFirst", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := g.Query(k).Window(lo, hi).First(ctx); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
	b.Run("FullRangeCount", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.Query(k).Window(lo, hi).Count(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
