// Allocation benchmarks for the repeated-query hot paths. The seed tree
// paid ~5k allocs and ~2.8 MB per repeated query (CoreTime setup plus the
// enumerator's per-timestamp buckets); the pooled scratch engine is
// expected to keep the steady state within a few dozen allocations.
package temporalkcore_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	tkc "temporalkcore"
	"temporalkcore/internal/bench"
)

// apiGraph rebuilds a scaled dataset replica through the public API.
func apiGraph(b *testing.B, code string, edges int) (*tkc.Graph, int) {
	b.Helper()
	d, err := bench.LoadDataset(code, edges, 1)
	if err != nil {
		b.Fatal(err)
	}
	raw := make([]tkc.Edge, 0, d.G.NumEdges())
	for _, te := range d.G.Edges() {
		raw = append(raw, tkc.Edge{U: d.G.Label(te.U), V: d.G.Label(te.V), Time: d.G.RawTime(te.T)})
	}
	g, err := tkc.NewGraph(raw)
	if err != nil {
		b.Fatal(err)
	}
	return g, d.K(bench.DefaultKPct)
}

// BenchmarkCoresFuncRepeat measures the full repeated-query hot path —
// CoreTime phase plus enumeration — through an unlimited Count.
func BenchmarkCoresFuncRepeat(b *testing.B) {
	ctx := context.Background()
	g, k := apiGraph(b, "CM", 6000)
	lo, hi := g.TimeSpan()
	span := hi - lo
	start, end := lo+span/4, lo+span/2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Query(k).Window(start, end).Count(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedCoresFunc measures re-enumeration of a prepared query,
// the pattern of a server answering the same (k, window) repeatedly.
func BenchmarkPreparedCoresFunc(b *testing.B) {
	g, k := apiGraph(b, "CM", 6000)
	lo, hi := g.TimeSpan()
	span := hi - lo
	p, err := g.Prepare(k, lo+span/4, lo+span/2)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, err := range p.Query().Seq(ctx) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQueryBatch compares a sequential loop against the parallel
// batch layer over a mixed workload of windows and k values.
func BenchmarkQueryBatch(b *testing.B) {
	g, k := apiGraph(b, "CM", 6000)
	lo, hi := g.TimeSpan()
	span := hi - lo
	var reqs []*tkc.Request
	for i := 0; i < 16; i++ {
		s := lo + span*int64(i)/32
		reqs = append(reqs, g.Query(2+(k-2)*(i%4)/3).Window(s, s+span/4))
	}
	ctx := context.Background()
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range g.RunBatch(ctx, reqs, tkc.BatchOptions{Parallelism: par, CountOnly: true}) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
