package main

import (
	"context"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/serve"
)

const (
	fig6Setups = 15 // set-ups per run; setup_s is their median
	fig6Verify = 12 // answers re-checked by direct vct+enum after an untraced run
	fig6OTCD   = 2  // windows the OTCD baseline runs on in a traced run
)

// fig6Answer is one answered window.
type fig6Answer struct {
	w            rawWindow
	cores, edges int64
}

// runFig6 is the fig6-cold workload: the paper's Figure 6 Enum row. One
// closed-loop in-process client counts the temporal k-cores of distinct
// windows of 10% of tmax, each containing a core, so every query misses
// the serving cache.
func runFig6(r *run) error {
	in := r.in
	var g *tkc.Graph
	setup, closer, err := repeatSetup(fig6Setups, func() (func() error, error) {
		var err error
		g, err = tkc.NewGraph(in.edges)
		return func() error { return nil }, err
	})
	if err != nil {
		return err
	}
	defer closer()
	r.set("setup_s", setup.Seconds())

	// Enough distinct windows for 30 queries a second; a small replica may
	// have fewer, and the run then ends when they are used up.
	wins := in.windows(int(r.cfg.seconds*30)+20, 1)
	if len(wins) == 0 {
		return errShort
	}
	ctx := context.Background()
	next := 0
	a, b := r.phases()

	var lat samples
	var answers []fig6Answer
	var redges int64
	cache0, mem0 := g.CacheStats(), readMem()
	// A traced run keeps half the windows for its traced phase, in case
	// a small replica runs out.
	untracedWins := len(wins)
	if r.cfg.trace {
		untracedWins /= 2
	}
	start := time.Now()
	for end := start.Add(a); next < untracedWins && time.Now().Before(end); next++ {
		w := wins[next]
		t := time.Now()
		qs, err := g.Query(in.k).Window(w.lo, w.hi).Count(ctx)
		d := time.Since(t)
		if r.check(err == nil && qs.Cores > 0 && !qs.CacheHit, "count [%d,%d]: %d cores, cache hit %v: %v", w.lo, w.hi, qs.Cores, qs.CacheHit, err) {
			lat.add(d)
			redges += qs.Edges
			answers = append(answers, fig6Answer{w, qs.Cores, qs.Edges})
		}
	}
	elapsed := time.Since(start).Seconds()
	cache1, mem1 := g.CacheStats(), readMem()
	r.note("query_samples", len(lat))
	r.note("query_tail", "p90")

	if !r.cfg.trace {
		r.set("query_qps", float64(len(lat))/elapsed)
		r.set("query_p50_ms", median(lat))
		r.set("query_tail_ms", quantile(lat, 0.9))
		r.set("r_edges_per_s", float64(redges)/elapsed)
		r.heapLive()
		// Re-check an evenly spread sample of answers with direct calls.
		for i := 0; i < fig6Verify && i < len(answers); i++ {
			ans := answers[i*len(answers)/min(fig6Verify, len(answers))]
			if eng, ok := r.engineLayers(g.Internal(), ans.w, -1, -1); ok {
				r.check(eng.cores == ans.cores && eng.edges == ans.edges,
					"Count found %d / %d, direct vct+enum %d / %d", ans.cores, ans.edges, eng.cores, eng.edges)
			}
		}
		return nil
	}

	r.cacheDelta(cache0, cache1)
	r.runtimeMetrics(mem0, mem1, len(lat))
	lb, err := startLoopback(serve.New(serve.Config{Graph: g}), 2)
	if err != nil {
		return err
	}
	defer lb.close()
	seq := g.Latest().Seq()
	type otcdCase struct {
		w   rawWindow
		eng engineCost
	}
	var otcdSet []otcdCase
	var tlat samples
	for end := time.Now().Add(b); next < len(wins) && time.Now().Before(end); next++ {
		w, req := wins[next], int64(next)
		root := r.tr.begin("fig6.request", -1, req)
		var qs tkc.QueryStats
		d := r.timed("temporalkcore.count_cold", root, req, func() { qs, err = g.Query(in.k).Window(w.lo, w.hi).Count(ctx) })
		if r.check(err == nil && qs.Cores > 0 && !qs.CacheHit, "count [%d,%d]: %d cores, cache hit %v: %v", w.lo, w.hi, qs.Cores, qs.CacheHit, err) {
			tlat.add(d)
			if eng, ok := r.engineLayers(g.Internal(), w, root, req); ok {
				r.check(eng.cores == qs.Cores && eng.edges == qs.Edges,
					"Count found %d / %d, direct vct+enum %d / %d", qs.Cores, qs.Edges, eng.cores, eng.edges)
				r.add("qcache.overhead_ms", ms(d-eng.build-eng.enum))
				if len(otcdSet) < fig6OTCD {
					otcdSet = append(otcdSet, otcdCase{w, eng})
				}
			}
			r.serveLayers(g, lb, queryBody(in.k, w, "count", 1, seq), root, req)
		}
		r.tr.end(root)
	}
	r.traceOverhead(lat, tlat)
	for i, c := range otcdSet {
		r.otcdLayer(g.Internal(), c.w, c.eng, int64(i))
	}
	return nil
}
