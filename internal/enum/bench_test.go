package enum_test

import (
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/gen"
	"temporalkcore/internal/kcore"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

func benchSetup(b *testing.B, code string, edges int) (*tgraph.Graph, *vct.ECS) {
	b.Helper()
	rep, err := gen.ReplicaByCode(code)
	if err != nil {
		b.Fatal(err)
	}
	g, err := rep.Generate(edges, 1)
	if err != nil {
		b.Fatal(err)
	}
	kmax := kcore.KMax(g)
	k := kmax * 30 / 100
	if k < 2 {
		k = 2
	}
	_, ecs, err := vct.Build(g, k, g.FullWindow())
	if err != nil {
		b.Fatal(err)
	}
	return g, ecs
}

// BenchmarkEnumerate measures the optimal enumeration phase in isolation;
// ns/op divided by R-edges approximates the per-result-edge constant, the
// paper's O(|R|) claim. The -first cases stop at the first core, the shape
// of a point query: they pay the set-up and the sweep up to that core's
// start, O(edges in range + start times swept), not O(|ECS|). The -count
// cases take the same totals from CountStop's per-start-time aggregates,
// the unlimited Count path: O(m + |ECS| log tlen + tlen), independent of
// |R|.
func BenchmarkEnumerate(b *testing.B) {
	for _, code := range []string{"CM", "PL"} {
		b.Run(code, func(b *testing.B) {
			g, ecs := benchSetup(b, code, 5000)
			b.ReportAllocs()
			b.ResetTimer()
			var sink enum.CountSink
			for i := 0; i < b.N; i++ {
				sink = enum.CountSink{}
				enum.Enumerate(g, ecs, &sink)
			}
			b.ReportMetric(float64(sink.EdgeTotal), "R-edges")
			if sink.EdgeTotal > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sink.EdgeTotal), "ns/R-edge")
			}
		})
	}
	for _, code := range []string{"CM", "PL"} {
		b.Run(code+"-first", func(b *testing.B) {
			g, ecs := benchSetup(b, code, 5000)
			var count enum.CountSink
			var lim enum.LimitSink
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count, lim = enum.CountSink{}, enum.LimitSink{Inner: &count, Max: 1}
				enum.Enumerate(g, ecs, &lim)
			}
			if count.Cores != 1 {
				b.Fatalf("first-core enumeration emitted %d cores", count.Cores)
			}
		})
	}
	for _, code := range []string{"CM", "PL"} {
		b.Run(code+"-count", func(b *testing.B) {
			_, ecs := benchSetup(b, code, 5000)
			s := enum.GetScratch()
			defer enum.PutScratch(s)
			_, edges, _ := enum.CountStop(ecs, s, nil) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, edges, _ = enum.CountStop(ecs, s, nil)
			}
			b.ReportMetric(float64(edges), "R-edges")
		})
	}
}

// BenchmarkEnumerateBase measures the straightforward method on the same
// input for a direct Algorithm 3 vs Algorithm 5 comparison.
func BenchmarkEnumerateBase(b *testing.B) {
	for _, code := range []string{"CM", "PL"} {
		b.Run(code, func(b *testing.B) {
			g, ecs := benchSetup(b, code, 5000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sink enum.CountSink
				enum.EnumerateBase(g, ecs, &sink, enum.BaseOptions{HashOnlyDedup: true})
			}
		})
	}
}
