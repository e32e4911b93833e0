package temporalkcore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// QuerySpec records one batched request's parameters in its BatchResult:
// the core parameter k, the raw (inclusive) time range and the algorithm
// (the zero value is the paper's optimal Enum).
type QuerySpec struct {
	K          int
	Start, End int64
	Algorithm  Algorithm
}

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Parallelism caps the number of worker goroutines; <= 0 means one per
	// available CPU (GOMAXPROCS).
	Parallelism int
	// CountOnly skips materialising result cores for every request:
	// BatchResult.Cores stays nil and only BatchResult.Stats is populated.
	// Use it for workloads that need counts, |R| or timings but not the
	// edge sets. Per-request Project(ProjectCount) does the same for a
	// single item.
	CountOnly bool
}

// BatchResult is the outcome of one batch request.
type BatchResult struct {
	Spec  QuerySpec
	Cores []Core // nil under count-only; partial when Cancelled mid-query
	Stats QueryStats
	Err   error
	// Cancelled reports that the batch context was cancelled before this
	// request completed. Err carries the context error; Cores holds
	// whatever prefix was enumerated before the cut (nil if it never ran).
	Cancelled bool
}

// RunBatch executes many v2 Requests concurrently on a bounded pool of
// workers, each running its items one after another on the same executor
// as a direct execution (pooled scratch, serving cache), so large query
// workloads exploit every CPU without paying per-query setup allocations.
// Results arrive at the index of their request; a request that fails
// validation reports through its BatchResult.Err without failing the
// batch. The requests themselves are only read.
//
// Only one-shot enumeration requests built with Graph.Query may be
// batched (prepared, watcher, snapshot and historical requests have their
// own engines); a request bound to another engine or another graph
// reports an error in its slot. Requests built from Snapshots of the same
// graph are accepted and execute pinned to their own epoch, so a serving
// batch can mix epochs while the writer appends. Per-request options —
// Window, Algorithm, Project, EarlyStop — all apply. Items on the same
// (epoch, k, window) share one CoreTime build through the serving cache's
// singleflight, with each other and with concurrent executions outside
// the batch.
//
// Cancelling ctx stops the batch early: completed requests keep their
// results, the in-flight ones are cut at the next poll stride, and every
// request that did not finish reports Cancelled with Err = ctx.Err(), so
// callers always get the partial work that was already paid for.
//
// tkc:allow-background: a nil ctx means context.Background
func (g *Graph) RunBatch(ctx context.Context, reqs []*Request, opts ...BatchOptions) []BatchResult {
	opt := BatchOptions{}
	if len(opts) > 0 {
		opt = opts[0]
	}
	if ctx == nil {
		ctx = context.Background()
	}

	res := make([]BatchResult, len(reqs))
	items := make([]int, 0, len(reqs)) // batch item -> request index
	for i, r := range reqs {
		if r == nil {
			res[i].Err = fmt.Errorf("temporalkcore: nil request in batch")
			continue
		}
		res[i].Spec = QuerySpec{K: r.k, Start: r.start, End: r.end, Algorithm: r.algo}
		if r.err != nil {
			res[i].Err = r.err
			continue
		}
		if r.prep != nil || r.watch != nil || r.hix != nil || r.h > 0 {
			res[i].Err = fmt.Errorf("temporalkcore: only one-shot enumeration requests can be batched")
			continue
		}
		// Requests pinned to any epoch of the same underlying graph are
		// accepted: each item executes against the graph state it was
		// built from (live graph or frozen snapshot), so one batch can mix
		// epochs while the writer keeps appending.
		if r.g != g && r.g.origin != g.origin {
			res[i].Err = fmt.Errorf("temporalkcore: batched request belongs to a different graph")
			continue
		}
		items = append(items, i)
	}

	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if n >= len(items) {
					return
				}
				res[items[n]].run(ctx, reqs[items[n]], opt.CountOnly)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Items no worker claimed before the cancellation.
		for _, i := range items[min(int(next.Load()), len(items)):] {
			res[i].Err, res[i].Cancelled = err, true
		}
	}
	// Honour each request's Stats destination, matching the direct
	// executors (written after the run, cancelled or not).
	for i, r := range reqs {
		if r != nil && r.statsDst != nil {
			*r.statsDst = res[i].Stats
		}
	}
	return res
}

// run executes one batch item into br. Count-only items tally off the
// engine's edge ids and leave Cores nil: converting every edge to labels
// and raw times just to discard it would make them pay nearly the full
// materialisation cost. A failed item keeps its partial cores only when
// the batch was cancelled.
func (br *BatchResult) run(ctx context.Context, r *Request, countOnly bool) {
	var fn func(Core) bool
	if !countOnly && r.proj != ProjectCount {
		fn = func(c Core) bool {
			br.Cores = append(br.Cores, c.clone())
			return true
		}
	}
	if br.Err = r.exec(ctx, &br.Stats, fn); br.Err != nil {
		br.Cancelled = br.Err == ctx.Err()
		if !br.Cancelled {
			br.Cores, br.Stats = nil, QueryStats{}
		}
	}
}
