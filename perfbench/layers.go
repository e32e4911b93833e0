package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/core"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// otcdLimit bounds one OTCD query.
const otcdLimit = 10 * time.Second

// timed runs fn inside a span and returns its duration.
func (r *run) timed(name string, parent int, req int64, fn func()) time.Duration {
	id := r.tr.begin(name, parent, req)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.tr.end(id)
	return d
}

// add records one sample of a per-layer quantity; the metric is the
// median of its samples unless finishLayers says otherwise.
func (r *run) add(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.samples == nil {
		r.samples = make(map[string][]float64)
	}
	r.samples[name] = append(r.samples[name], v)
}

// firstSink stops an enumeration at its first core.
type firstSink struct{ cores int }

func (s *firstSink) Emit(tgraph.Window, []tgraph.EID) bool {
	s.cores++
	return false
}

// engineCost is what the direct engine calls on one window cost and found.
type engineCost struct {
	build, enum  time.Duration
	cores, edges int64
}

// engineLayers times the paper's two phases directly on one window of g:
// vct.BuildStop (the CoreTime phase), enum.EnumerateStop with a count sink
// over the built skyline, and EnumerateStop again stopping at the first
// core.
func (r *run) engineLayers(g *tgraph.Graph, w rawWindow, parent int, req int64) (engineCost, bool) {
	tw, ok := g.CompressRange(w.lo, w.hi)
	if !r.check(ok, "window [%d,%d] covers no timestamp", w.lo, w.hi) {
		return engineCost{}, false
	}
	var c engineCost
	var ix *vct.Index
	var ecs *vct.ECS
	var err error
	c.build = r.timed("vct.build", parent, req, func() { ix, ecs, err = vct.BuildStop(g, r.in.k, tw, nil) })
	if !r.check(err == nil, "vct.BuildStop: %v", err) {
		return c, false
	}
	r.add("vct.index_entries", float64(ix.Size()))
	r.add("vct.ecs_entries", float64(ecs.Size()))
	s := enum.GetScratch()
	defer enum.PutScratch(s)
	var count enum.CountSink
	c.enum = r.timed("enum.enum", parent, req, func() { enum.EnumerateStop(g, ecs, &count, s, nil) })
	c.cores, c.edges = count.Cores, count.EdgeTotal
	if c.cores > 0 {
		r.add("enum.ns_per_core", float64(c.enum.Nanoseconds())/float64(c.cores))
	}
	var first firstSink
	r.timed("enum.first_core", parent, req, func() { enum.EnumerateStop(g, ecs, &first, s, nil) })
	r.check(first.cores == min(1, int(c.cores)), "first-core enumeration emitted %d cores", first.cores)
	return c, true
}

// otcdLayer runs the OTCD baseline on one window under otcdLimit and checks
// it against the engine's totals. A query that hits the limit is not a
// measurement of OTCD: it adds no sample, and if no window finishes, the
// OTCD metrics are reported unmeasured.
func (r *run) otcdLayer(g *tgraph.Graph, w rawWindow, want engineCost, req int64) {
	tw, ok := g.CompressRange(w.lo, w.hi)
	if !r.check(ok, "window [%d,%d] covers no timestamp", w.lo, w.hi) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), otcdLimit)
	defer cancel()
	var count enum.CountSink
	var err error
	d := r.timed("otcd.query", -1, req, func() {
		_, err = core.Query(g, r.in.k, tw, &count, core.Options{Algorithm: core.AlgoOTCD, Ctx: ctx})
	})
	if errors.Is(err, context.DeadlineExceeded) {
		r.addTotal("otcd.timed_out", 1)
		return
	}
	if !r.check(err == nil && count.Cores == want.cores && count.EdgeTotal == want.edges,
		"OTCD found %d cores / |R| %d, Enum %d / %d: %v", count.Cores, count.EdgeTotal, want.cores, want.edges, err) {
		return
	}
	r.add("otcd.query_ms", ms(d))
	if e := want.build + want.enum; e > 0 {
		r.add("enum.speedup_vs_otcd", float64(d)/float64(e))
	}
}

// serveLayers times, on one query body, the layers of a served query around
// the engine: JSON decode plus QueryJSON.RequestFrom, a warm in-process
// Request.Count, the server's handler into an in-memory writer, and a
// loopback round trip. Every answer must match the in-process count. It
// returns the count's stats and duration.
func (r *run) serveLayers(src tkc.Querier, lb *loopback, body []byte, parent int, req int64) (tkc.QueryStats, time.Duration, bool) {
	var rq *tkc.Request
	var err error
	r.timed("temporalkcore.decode", parent, req, func() {
		var q tkc.QueryJSON // the epoch pin is the server's field; skipped here
		if err = json.Unmarshal(body, &q); err == nil {
			rq, err = q.RequestFrom(src)
		}
	})
	if !r.check(err == nil, "decode %s: %v", body, err) {
		return tkc.QueryStats{}, 0, false
	}
	var qs tkc.QueryStats
	countD := r.timed("temporalkcore.count", parent, req, func() { qs, err = rq.Count(context.Background()) })
	if !r.check(err == nil, "count %s: %v", body, err) {
		return qs, countD, false
	}

	hreq := httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	handlerD := r.timed("serve.handler", parent, req, func() { lb.srv.Handler().ServeHTTP(rec, hreq) })
	rep, ok := parseReply(rec.Code, rec.Body.Bytes())
	r.check(ok && rep.stats.Cores == qs.Cores && rep.stats.Edges == qs.Edges,
		"handler answered %d cores / %d edges (status %d), in-process count %d / %d",
		rep.stats.Cores, rep.stats.Edges, rec.Code, qs.Cores, qs.Edges)
	r.add("serve.response_bytes", float64(rec.Body.Len()))

	var net reply
	rtt := r.timed("serve.roundtrip", parent, req, func() { net, err = lb.query(body) })
	r.check(err == nil && net.stats.Cores == qs.Cores && net.stats.Edges == qs.Edges,
		"round trip answered %d cores / %d edges (%v), in-process count %d / %d",
		net.stats.Cores, net.stats.Edges, err, qs.Cores, qs.Edges)
	r.add("serve.net_us", us(rtt-handlerD))
	return qs, countD, true
}

// shardLayers runs one window on a pinned sharded view and on its
// unsharded Snapshot: an untimed unsharded count (the oracle, and a warm-up
// for the timed repeat), then the timed unsharded and sharded counts. All
// three must agree. It returns the oracle's stats.
func (r *run) shardLayers(v *tkc.ShardedView, w rawWindow, parent int, req int64) (tkc.QueryStats, bool) {
	ctx := context.Background()
	snap := v.Snapshot().Graph
	base, err := snap.Query(r.in.k).Window(w.lo, w.hi).Count(ctx)
	if !r.check(err == nil, "unsharded count: %v", err) {
		return base, false
	}
	var warm, sharded tkc.QueryStats
	var uerr, serr error
	ud := r.timed("shard.unsharded_query", parent, req, func() { warm, uerr = snap.Query(r.in.k).Window(w.lo, w.hi).Count(ctx) })
	sd := r.timed("shard.query", parent, req, func() { sharded, serr = v.Query(r.in.k).Window(w.lo, w.hi).Count(ctx) })
	ok := r.check(uerr == nil && serr == nil &&
		warm.Cores == base.Cores && warm.Edges == base.Edges &&
		sharded.Cores == base.Cores && sharded.Edges == base.Edges,
		"sharded count %d / %d (%v), unsharded %d / %d (%v), oracle %d / %d",
		sharded.Cores, sharded.Edges, serr, warm.Cores, warm.Edges, uerr, base.Cores, base.Edges)
	if ud > 0 {
		r.add("shard.overhead_ratio", float64(sd)/float64(ud))
	}
	r.add("shard.spans_per_query", float64(sharded.Shards))
	r.addTotal("shard.spans", float64(sharded.Shards))
	r.addTotal("shard.patched", float64(sharded.Patched))
	return base, ok
}

// addTotal accumulates a per-layer count across the run.
func (r *run) addTotal(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.totals == nil {
		r.totals = make(map[string]float64)
	}
	r.totals[name] += v
}

// spanMetrics maps span names to the per-layer metric that is their median
// duration, with its scale.
var spanMetrics = []struct {
	span, metric string
	scale        func(time.Duration) float64
}{
	{"vct.build", "vct.build_ms", ms},
	{"enum.enum", "enum.enum_ms", ms},
	{"enum.first_core", "enum.first_core_us", us},
	{"temporalkcore.decode", "temporalkcore.decode_us", us},
	{"temporalkcore.count", "temporalkcore.count_us", us},
	{"serve.handler", "serve.handler_us", us},
	{"store.append", "store.append_us", us},
	{"tgraph.append", "tgraph.append_us", us},
	{"epoch.publish", "epoch.publish_us", us},
	{"shard.query", "shard.query_ms", ms},
	{"shard.unsharded_query", "shard.unsharded_query_ms", ms},
}

// finishLayers turns the traced run's spans and samples into per-layer
// metrics.
func (r *run) finishLayers() {
	for _, m := range spanMetrics {
		if ds := r.tr.durations(m.span); len(ds) > 0 {
			r.set(m.metric, m.scale(medianDur(ds)))
		}
	}
	r.mu.Lock()
	samples, totals := r.samples, r.totals
	r.mu.Unlock()
	for name, xs := range samples {
		switch name {
		case "loadgen.late_ms":
			r.set(name, quantile(xs, 0.9))
		default:
			r.set(name, median(xs))
		}
	}
	r.set("serve.rejected", totals["serve.rejected"])
	if n := totals["otcd.timed_out"]; n > 0 {
		r.note("otcd_timed_out", n)
		for _, name := range []string{"otcd.query_ms", "enum.speedup_vs_otcd"} {
			if _, ok := samples[name]; !ok {
				r.unmeasured[name] = fmt.Sprintf("OTCD exceeded %v on every window it ran", otcdLimit)
			}
		}
	}
	if spans := totals["shard.spans"]; spans > 0 {
		r.set("shard.patched_ratio", totals["shard.patched"]/spans)
	}

	// How the warm HTTP versus in-process gap and the sharded versus
	// unsharded gap split by layer.
	r.mu.Lock()
	v := r.values
	http := map[string]float64{
		"round_trip_us":           us(r.tr.medianOf("serve.roundtrip")),
		"in_process_count_us":     v["temporalkcore.count_us"],
		"handler_us":              v["serve.handler_us"],
		"handler_beyond_count_us": v["serve.handler_us"] - v["temporalkcore.count_us"],
		"net_us":                  v["serve.net_us"],
		"first_core_us":           v["enum.first_core_us"],
	}
	sharded := map[string]float64{
		"sharded_ms":   v["shard.query_ms"],
		"unsharded_ms": v["shard.unsharded_query_ms"],
		"ratio":        v["shard.overhead_ratio"],
	}
	r.mu.Unlock()
	r.note("gap_http_vs_in_process", http)
	r.note("gap_sharded_vs_unsharded", sharded)
}

// traceOverhead sets trace.overhead_ms: the traced phase's median
// end-to-end latency minus the untraced phase's.
func (r *run) traceOverhead(untraced, traced samples) {
	if len(untraced) > 0 && len(traced) > 0 {
		r.set("trace.overhead_ms", median(traced)-median(untraced))
	}
}
