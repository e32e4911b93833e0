package dyn_test

import (
	"fmt"
	"testing"

	"temporalkcore/internal/core"
	"temporalkcore/internal/dyn"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/gen"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// benchStream synthesises the CM (CollegeMsg) replica and splits its
// time-sorted edge list into a 99% base and a 1% append tail.
func benchStream(b *testing.B, edges int) (base, tail []tgraph.RawEdge) {
	b.Helper()
	rep, err := gen.ReplicaByCode("CM")
	if err != nil {
		b.Fatal(err)
	}
	g, err := rep.Generate(edges, 42)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]tgraph.RawEdge, g.NumEdges())
	for i := range all {
		te := g.Edge(tgraph.EID(i))
		all[i] = tgraph.RawEdge{U: g.Label(te.U), V: g.Label(te.V), Time: g.RawTime(te.T)}
	}
	cut := len(all) * 99 / 100
	return all[:cut], all[cut:]
}

// trailing returns the window covering the last 2% of the ranks — the
// live span a streaming monitor re-queries after each batch.
func trailing(g *tgraph.Graph) tgraph.Window {
	return tgraph.Window{Start: 1 + g.TMax()*49/50, End: g.TMax()}
}

// BenchmarkAppendVsRebuild measures the streaming scenario the dynamic
// subsystem exists for: 1% new edges arrive on the CM replica and the
// trailing-window core count must be refreshed. The append path extends
// the graph in place and patches the CoreTime tables; the rebuild path
// re-ingests every edge into a fresh graph and builds the tables from
// scratch. The acceptance bar for PR 2 is append >= 5x faster.
func BenchmarkAppendVsRebuild(b *testing.B) {
	const k = 8
	base, tail := benchStream(b, 59835)
	all := append(append([]tgraph.RawEdge(nil), base...), tail...)

	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g, err := tgraph.FromRawEdges(base)
			if err != nil {
				b.Fatal(err)
			}
			d, err := dyn.New(g, k, trailing(g))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()

			if _, err := g.Append(tail); err != nil {
				b.Fatal(err)
			}
			if err := d.RefreshAt(g, trailing(g), nil); err != nil {
				b.Fatal(err)
			}
			v := d.View()
			var es enum.Scratch
			enum.EnumerateStop(v.G, v.Ecs, &enum.CountSink{}, &es, nil)
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := tgraph.FromRawEdges(all)
			if err != nil {
				b.Fatal(err)
			}
			sink := &enum.CountSink{}
			if _, err := core.Query(g, k, trailing(g), sink, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPatchVsBuild isolates the CoreTime-table maintenance cost from
// graph ingestion: same 1% append, but only the index refresh is timed,
// against a from-scratch build (dyn.New) over the same window.
func BenchmarkPatchVsBuild(b *testing.B) {
	const k = 8
	base, tail := benchStream(b, 59835)

	b.Run("patch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g, err := tgraph.FromRawEdges(base)
			if err != nil {
				b.Fatal(err)
			}
			d, err := dyn.New(g, k, trailing(g))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.Append(tail); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := d.RefreshAt(g, trailing(g), nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		g, err := tgraph.FromRawEdges(append(append([]tgraph.RawEdge(nil), base...), tail...))
		if err != nil {
			b.Fatal(err)
		}
		d, err := dyn.New(g, k, trailing(g))
		if err != nil {
			b.Fatal(err)
		}
		_ = d
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dyn.New(g, k, trailing(g)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSteadyRefresh times a watcher's steady state, which
// BenchmarkPatchVsBuild does not: there the patch is an index's first
// refresh, on a cold Scratch. Here the 1% tail streams in 10-edge batches
// and each op is one batch: "patch" times the RefreshAt of the trailing
// window on the index's warm Scratch, "patch-cached" the same with a
// 64 MiB serving cache attached, as Graph.Watch attaches one, so it also
// times the insert of the published tables, and "build" times a
// vct.BuildScratch of the same window on a warm Scratch. Appends are
// untimed. When the tail runs out the stream restarts from the base graph
// with a fresh index and cache, and the first two batches of every pass
// are untimed warm-ups, so every side times the same graph states on a
// Scratch that has already grown.
func BenchmarkSteadyRefresh(b *testing.B) {
	const k, batch, warmup = 8, 10, 2
	base, tail := benchStream(b, 59835)
	for _, pct := range []tgraph.TS{2, 20} {
		window := func(g *tgraph.Graph) tgraph.Window {
			return tgraph.Window{Start: 1 + g.TMax()*(100-pct)/100, End: g.TMax()}
		}
		// run streams the tail through a fresh base graph per pass and
		// times step after each batch past the warm-ups; start prepares
		// the side's state for a pass.
		run := func(b *testing.B, start func(*tgraph.Graph), step func(*tgraph.Graph)) {
			b.ReportAllocs()
			b.StopTimer()
			var g *tgraph.Graph
			next := len(tail)
			for i := 0; i < b.N; {
				if next+batch > len(tail) {
					var err error
					if g, err = tgraph.FromRawEdges(base); err != nil {
						b.Fatal(err)
					}
					start(g)
					next = 0
				}
				if _, err := g.Append(tail[next : next+batch]); err != nil {
					b.Fatal(err)
				}
				timed := next >= warmup*batch
				next += batch
				if timed {
					b.StartTimer()
				}
				step(g)
				if timed {
					b.StopTimer()
					i++
				}
			}
		}
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("trailing%d/patch", pct)
			if cached {
				name += "-cached"
			}
			b.Run(name, func(b *testing.B) {
				var d *dyn.Index
				run(b, func(g *tgraph.Graph) {
					var err error
					if d, err = dyn.New(g, k, window(g)); err != nil {
						b.Fatal(err)
					}
					if cached {
						d.SetCache(qcache.New(64 << 20))
					}
				}, func(g *tgraph.Graph) {
					if err := d.RefreshAt(g, window(g), nil); err != nil {
						b.Fatal(err)
					}
				})
			})
		}
		b.Run(fmt.Sprintf("trailing%d/build", pct), func(b *testing.B) {
			s := new(vct.Scratch)
			run(b, func(*tgraph.Graph) {}, func(g *tgraph.Graph) {
				if _, _, err := vct.BuildScratch(g, k, window(g), s); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}
