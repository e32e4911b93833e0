package temporalkcore

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sort"
	"time"

	"temporalkcore/internal/core"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// Projection selects what each result Core carries. Narrower projections
// skip the label/time conversion work entirely, so counting workloads pay
// no materialisation cost.
type Projection int

const (
	// ProjectEdges populates Core.Edges (the default).
	ProjectEdges Projection = iota
	// ProjectVertices populates Core.Vertices with the core's distinct
	// vertex labels, sorted ascending.
	ProjectVertices
	// ProjectCount populates neither: only the tightest time interval and
	// the query statistics are reported.
	ProjectCount
)

// Request is the composable query builder of API v2: one request type that
// every execution engine shares. Build it with Graph.Query (one-shot),
// PreparedQuery.Query (reusing a CoreTime phase), Watcher.Query (the live
// sliding window), or HistoricalIndex.Query (snapshot k-cores from the PHC
// index), chain options, then execute with Seq, Collect, First or Count —
// all of which take a context.Context that cancels both query phases with
// a bounded poll stride.
//
//	cores, err := g.Query(3).Window(t0, t1).Collect(ctx)
//
//	for c, err := range g.Query(3).Window(t0, t1).Project(temporalkcore.ProjectVertices).Seq(ctx) {
//	    ...
//	    break // stops the engine; only consumed cores are materialised
//	}
//
// A Request is a mutable builder: chain methods from a single goroutine
// and do not share one Request between concurrent executions. Executing
// twice re-runs the query. Builder errors (bad k, conflicting options) are
// deferred and returned by the execution call.
//
// A compiled plan pins the graph epoch it started on: a request built from
// a Snapshot (or a PreparedQuery prepared on one) executes every phase
// against that frozen state, and a watcher request pins the watcher's
// current published view for its whole execution — concurrent appends
// never shift the data under a running query.
type Request struct {
	g *Graph
	k int

	start, end int64
	windowSet  bool

	proj    Projection
	algo    Algorithm
	algoSet bool
	limit   int

	h     int // > 0: snapshot (k,h)-core mode
	hix   *HistoricalIndex
	prep  *PreparedQuery
	watch *Watcher
	sview *ShardedView // non-nil: a sharded request on the view's epoch

	statsDst *QueryStats
	err      error
}

// Query starts a one-shot request for temporal k-cores over the whole
// graph history; narrow it with Window.
func (g *Graph) Query(k int) *Request {
	r := &Request{g: g, k: k, start: math.MinInt64, end: math.MaxInt64}
	if k < 1 {
		r.err = fmt.Errorf("temporalkcore: k must be >= 1, got %d", k)
	}
	return r
}

// Query starts a request that enumerates from the prepared CoreTime phase:
// the request's k and window are fixed to the prepared ones and only the
// enumeration runs per execution.
func (p *PreparedQuery) Query() *Request {
	start, end := p.Range()
	return &Request{g: p.g, k: p.k, start: start, end: end, prep: p}
}

// Query starts a request against the watcher's current sliding window. The
// view is refreshed (incrementally patched) before enumerating.
func (w *Watcher) Query() *Request {
	return &Request{g: w.g, k: w.k, watch: w}
}

// Query starts a snapshot k-core request answered from the historical PHC
// index: the single k-core of the snapshot over the requested window.
func (h *HistoricalIndex) Query(k int) *Request {
	r := h.g.Query(k)
	r.hix = h
	return r
}

// fail records the first builder error.
func (r *Request) fail(format string, args ...any) *Request {
	if r.err == nil {
		r.err = fmt.Errorf("temporalkcore: "+format, args...)
	}
	return r
}

// Window restricts the query to the raw (inclusive) time range
// [start, end]. Prepared and watcher requests have a fixed window and
// reject it.
func (r *Request) Window(start, end int64) *Request {
	if r.prep != nil {
		return r.fail("prepared queries fix the window at Prepare time")
	}
	if r.watch != nil {
		return r.fail("watcher queries follow the watch window")
	}
	r.start, r.end, r.windowSet = start, end, true
	return r
}

// Project selects what each result Core carries; see Projection.
func (r *Request) Project(p Projection) *Request {
	if p < ProjectEdges || p > ProjectCount {
		return r.fail("unknown projection %d", int(p))
	}
	r.proj = p
	return r
}

// Algorithm pins the enumeration strategy (AlgoEnum, AlgoEnumBase,
// AlgoOTCD) for one-shot requests. Prepared, watcher, snapshot and
// historical requests always use their own engine and reject it.
func (r *Request) Algorithm(a Algorithm) *Request {
	if r.prep != nil || r.watch != nil || r.hix != nil || r.h > 0 || r.sview != nil {
		return r.fail("Algorithm applies only to one-shot enumeration requests")
	}
	r.algo, r.algoSet = a, true
	return r
}

// EarlyStop stops the enumeration after n cores have been emitted. It is
// equivalent to breaking out of Seq after n results — the engine stops,
// remaining cores are never materialised — packaged for Collect/Count.
// n <= 0 removes the limit.
func (r *Request) EarlyStop(n int) *Request {
	if n < 0 {
		n = 0
	}
	r.limit = n
	return r
}

// Snapshot switches the request to the (k, h)-core model of Wu et al.: the
// single maximal subgraph of the snapshot over the window in which every
// vertex has >= k neighbours with >= h interactions each. h = 1 is the
// ordinary snapshot k-core. The result stream carries at most one Core.
// Cancellation is checked before the peel starts; the single O(E) peeling
// pass itself runs to completion (unlike the enumeration engines, it has
// no per-start-time stride to poll on).
func (r *Request) Snapshot(h int) *Request {
	if r.prep != nil || r.watch != nil || r.hix != nil || r.sview != nil {
		return r.fail("Snapshot applies only to one-shot requests")
	}
	if r.algoSet {
		return r.fail("Snapshot conflicts with Algorithm")
	}
	if h < 1 {
		return r.fail("h must be >= 1, got %d", h)
	}
	r.h = h
	return r
}

// Using answers the request from a prebuilt historical PHC index instead
// of enumerating: the single k-core of the snapshot over the window.
// Cancellation is checked before the index walk; the single bounded
// lookup pass itself runs to completion.
func (r *Request) Using(h *HistoricalIndex) *Request {
	if r.prep != nil || r.watch != nil || r.h > 0 || r.sview != nil {
		return r.fail("Using applies only to one-shot requests")
	}
	if r.algoSet {
		return r.fail("Using conflicts with Algorithm")
	}
	if h == nil {
		return r.fail("Using(nil) historical index")
	}
	if h.g.origin != r.g.origin {
		return r.fail("historical index belongs to a different graph")
	}
	r.hix = h
	return r
}

// Stats records the execution's QueryStats into dst when the stream ends
// (normally, early-stopped or cancelled), for executions like Seq and
// Collect that have no stats return value.
func (r *Request) Stats(dst *QueryStats) *Request {
	r.statsDst = dst
	return r
}

// Seq executes the request and returns the results as a pull stream: cores
// are produced one at a time as the loop consumes them, each Core (and its
// slices) owned by the consumer. Breaking out of the loop stops the engine,
// so early termination pays only for the cores actually consumed. A
// cancellation or engine error arrives as the final (Core{}, err) element.
func (r *Request) Seq(ctx context.Context) iter.Seq2[Core, error] {
	return func(yield func(Core, error) bool) {
		broke := false
		_, err := r.run(ctx, func(c Core) bool {
			if !yield(c.clone(), nil) {
				broke = true
				return false
			}
			return true
		})
		if err != nil && !broke {
			yield(Core{}, err)
		}
	}
}

// Collect executes the request and materialises every result. On error
// (including cancellation) it returns the cores collected so far together
// with the error.
func (r *Request) Collect(ctx context.Context) ([]Core, error) {
	var out []Core
	_, err := r.run(ctx, func(c Core) bool {
		out = append(out, c.clone())
		return true
	})
	return out, err
}

// First executes the request with an implicit EarlyStop(1) and returns the
// first core, if any. The engine stops as soon as it is emitted, so on
// large result sets this costs the CoreTime phase plus O(1) enumeration.
func (r *Request) First(ctx context.Context) (Core, bool, error) {
	var first Core
	found := false
	_, err := r.run(ctx, func(c Core) bool {
		first, found = c.clone(), true
		return false
	})
	return first, found, err
}

// Count executes the request without materialising results and returns the
// statistics (distinct cores, |R|, index sizes, phase timings). Without an
// EarlyStop limit an Enum count takes cores and |R| from per-start-time
// aggregates over the skyline (enum.CountStop) instead of walking every
// core, so its enumeration phase does not grow with |R|; the totals equal
// the walk's.
func (r *Request) Count(ctx context.Context) (QueryStats, error) {
	return r.run(ctx, nil)
}

// clone copies a core out of the engine's reused buffers.
func (c Core) clone() Core {
	c.Edges = append([]Edge(nil), c.Edges...)
	c.Vertices = append([]int64(nil), c.Vertices...)
	return c
}

// run executes the request, pushing each result core to fn, and records
// its statistics into the Stats destination. A nil fn only counts: cores
// and |R| are tallied off the engine's edge ids and no Core is built. The
// Core passed to fn reuses buffers between calls; public executors copy
// before handing cores out.
//
// tkc:allow-background: a nil ctx means context.Background
func (r *Request) run(ctx context.Context, fn func(Core) bool) (QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var qs QueryStats
	err := r.exec(ctx, &qs, fn)
	if r.statsDst != nil {
		*r.statsDst = qs
	}
	return qs, err
}

// exec compiles the request and executes it into qs; see run. It only
// reads the request.
func (r *Request) exec(ctx context.Context, qs *QueryStats, fn func(Core) bool) error {
	if r.err != nil {
		return r.err
	}
	proj := r.proj
	if fn == nil {
		proj = ProjectCount
	}
	switch {
	case r.hix != nil:
		return r.runHistorical(ctx, qs, proj, fn)
	case r.h > 0:
		return r.runSnapshot(ctx, qs, proj, fn)
	}
	sink := &projSink{g: r.g.g, proj: proj, fn: fn, qs: qs, limit: int64(r.limit)}
	if r.algo != AlgoEnum {
		return r.runBaseline(ctx, qs, sink)
	}
	return r.enumerate(ctx, qs, sink)
}

// projSink converts engine emissions (compressed windows + edge ids) into
// public Cores under the request's projection and forwards them to fn.
// With a nil fn it is the id-only counting sink: it tallies cores and |R|
// and converts nothing. A positive limit stops the engine after that many
// cores.
type projSink struct {
	g     *tgraph.Graph // the graph state the edge ids refer to
	proj  Projection
	fn    func(Core) bool
	qs    *QueryStats
	limit int64

	ebuf []Edge
	vbuf []int64
	mark []bool
}

func (s *projSink) Emit(tti tgraph.Window, eids []tgraph.EID) bool {
	s.qs.Cores++
	s.qs.Edges += int64(len(eids))
	if s.fn != nil && !s.fn(s.project(tti, eids)) {
		return false
	}
	return s.limit == 0 || s.qs.Cores < s.limit
}

// project builds the public Core of one emission in the sink's buffers.
func (s *projSink) project(tti tgraph.Window, eids []tgraph.EID) Core {
	rs, re := s.g.RawWindow(tti)
	c := Core{Start: rs, End: re}
	switch s.proj {
	case ProjectEdges:
		s.ebuf = s.ebuf[:0]
		for _, e := range eids {
			te := s.g.Edge(e)
			s.ebuf = append(s.ebuf, Edge{
				U:    s.g.Label(te.U),
				V:    s.g.Label(te.V),
				Time: s.g.RawTime(te.T),
			})
		}
		c.Edges = s.ebuf
	case ProjectVertices:
		if s.mark == nil {
			s.mark = make([]bool, s.g.NumVertices())
		}
		s.vbuf = s.vbuf[:0]
		for _, e := range eids {
			te := s.g.Edge(e)
			if !s.mark[te.U] {
				s.mark[te.U] = true
				s.vbuf = append(s.vbuf, s.g.Label(te.U))
			}
			if !s.mark[te.V] {
				s.mark[te.V] = true
				s.vbuf = append(s.vbuf, s.g.Label(te.V))
			}
		}
		for _, e := range eids { // reset marks for the next core
			te := s.g.Edge(e)
			s.mark[te.U], s.mark[te.V] = false, false
		}
		sort.Slice(s.vbuf, func(a, b int) bool { return s.vbuf[a] < s.vbuf[b] })
		c.Vertices = s.vbuf
	}
	return c
}

// enumerate is the one executor of every Enum request: one-shot, prepared,
// watcher and sharded. It takes the CoreTime skylines from the request's
// source (the prepared tables, the watcher's pinned view, or the window's
// tables; see tables) and enumerates them into sink in the caller's
// goroutine; an unlimited count runs enum.CountStop over them instead. A
// sharded request runs exactly as an unsharded one on the view's pinned
// epoch; it only also reports how many of the view's shards the window
// overlaps.
func (r *Request) enumerate(ctx context.Context, qs *QueryStats, sink *projSink) error {
	var w tgraph.Window
	if r.prep == nil && r.watch == nil {
		var err error
		if w, err = r.g.window(r.start, r.end); err != nil {
			return err
		}
		if r.sview != nil {
			qs.Shards = r.sview.dir.Overlaps(w)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stop := core.StopFromCtx(ctx)
	var ix *vct.Index
	var ecs *vct.ECS
	switch {
	case r.prep != nil:
		ix, ecs = r.prep.ix, r.prep.ecs
	case r.watch != nil:
		// A stale view is repaired (incrementally patched) first.
		v, release, err := r.watch.acquireView(stop)
		if err != nil {
			return core.StopErr(ctx, err)
		}
		defer release()
		ix, ecs, sink.g = v.Ix, v.Ecs, v.G
	default:
		vs := vct.GetScratch()
		defer vct.PutScratch(vs)
		var err error
		if ix, ecs, err = r.tables(ctx, qs, w, vs, stop); err != nil {
			return err
		}
	}
	qs.VCTSize, qs.ECSSize = ix.Size(), ecs.Size()

	es := enum.GetScratch()
	defer enum.PutScratch(es)
	began := time.Now()
	var cancelled bool
	if sink.fn == nil && sink.limit == 0 {
		// An unlimited count receives no core: take cores and |R| from
		// the per-start-time aggregates instead of walking L_t.
		qs.Cores, qs.Edges, cancelled = enum.CountStop(ecs, es, stop)
	} else {
		_, cancelled = enum.EnumerateStop(sink.g, ecs, sink, es, stop)
	}
	qs.EnumTime = time.Since(began)
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// tables returns the CoreTime tables of the request's window w: the
// serving-cache entry under g.cacheKey, built by g.buildCacheEntry on a
// miss, or a build on vs when the cache is off or the key is known to
// exceed its budget. Tables built on vs stay valid until vs is reused. It
// records the cache outcome and the CoreTime it paid in qs.
func (r *Request) tables(ctx context.Context, qs *QueryStats, w tgraph.Window, vs *vct.Scratch, stop func() bool) (*vct.Index, *vct.ECS, error) {
	g := r.g
	if c := g.cache(); c != nil {
		if key := g.cacheKey(r.k, w); !c.Uncacheable(key) {
			ent, how, err := c.GetOrBuild(ctx, key, func() (*qcache.Entry, error) {
				return g.buildCacheEntry(ctx, r.k, w)
			})
			if err != nil {
				return nil, nil, err
			}
			qs.CacheHit = how != qcache.Built
			qs.CacheShared = how == qcache.Shared
			if how == qcache.Built {
				qs.CoreTime = ent.CoreTime
			}
			return ent.Ix, ent.Ecs, nil
		}
	}
	began := time.Now()
	ix, ecs, err := vct.BuildScratchStop(g.g, r.k, w, vs, stop)
	qs.CoreTime = time.Since(began)
	return ix, ecs, core.StopErr(ctx, err)
}

// runBaseline executes an EnumBase or OTCD request: the paper's baselines
// run their own pipelines and bypass the serving cache.
func (r *Request) runBaseline(ctx context.Context, qs *QueryStats, sink *projSink) error {
	w, err := r.g.window(r.start, r.end)
	if err != nil {
		return err
	}
	st, err := core.Query(r.g.g, r.k, w, sink, core.Options{Algorithm: r.algo, Ctx: ctx})
	if err != nil {
		return err
	}
	qs.VCTSize, qs.ECSSize = st.VCTSize, st.ECSSize
	qs.CoreTime, qs.EnumTime = st.CoreTime, st.EnumTime
	return nil
}

// emitSnapshot assembles the single snapshot core of a window from its
// vertex ids or edge ids (whichever the projection needs) and emits it —
// the shared tail of the (k, h)-core and historical PHC engines. An empty
// core emits nothing, and a nil fn only counts. g is the graph state the
// ids refer to — the live epoch for (k, h)-cores, the pinned epoch for
// historical indexes.
func emitSnapshot(qs *QueryStats, proj Projection, fn func(Core) bool, g *tgraph.Graph, w tgraph.Window, vids []tgraph.VID, eids []tgraph.EID) {
	rs, re := g.RawWindow(w)
	c := Core{Start: rs, End: re}
	if proj == ProjectVertices {
		if len(vids) == 0 {
			return
		}
		labels := make([]int64, len(vids))
		for i, v := range vids {
			labels[i] = g.Label(v)
		}
		sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
		c.Vertices = labels
	} else {
		if len(eids) == 0 {
			return
		}
		qs.Edges = int64(len(eids))
		if proj == ProjectEdges {
			edges := make([]Edge, len(eids))
			for i, e := range eids {
				te := g.Edge(e)
				edges[i] = Edge{U: g.Label(te.U), V: g.Label(te.V), Time: g.RawTime(te.T)}
			}
			c.Edges = edges
		}
	}
	qs.Cores = 1
	if fn != nil {
		fn(c)
	}
}
