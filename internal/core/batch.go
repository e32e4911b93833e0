package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/tgraph"
)

// BatchQuery is one (k, window) item of a batch run.
type BatchQuery struct {
	K    int
	W    tgraph.Window
	Opts Options
}

// BatchResult is the outcome of one batch item.
type BatchResult struct {
	Stats Stats
	Err   error
	// Cancelled is true when the batch context was cancelled before this
	// item completed: either it never ran (Stats is zero) or it was cut
	// mid-query (its sink may have received a partial prefix of results).
	// Err carries the context error in both cases.
	Cancelled bool
}

// QueryBatch executes many time-range k-core queries concurrently across a
// pool of workers, each with its own pooled Scratch, so cross-query
// parallelism costs no per-query setup allocations. sinkFor(i) must return
// the sink for queries[i]; sinks of different items are used concurrently,
// so they must not share mutable state unless synchronised. Results arrive
// at the index of their query. parallelism <= 0 means GOMAXPROCS.
//
// ctx cancels the batch: workers stop claiming new queries, the running
// queries cancel at their next poll stride, and every item that did not
// complete reports Cancelled with Err = ctx.Err(). Items finished before
// the cancellation keep their results, so the batch returns partial work
// rather than discarding it. A nil ctx never cancels.
func QueryBatch(ctx context.Context, g *tgraph.Graph, queries []BatchQuery, parallelism int, sinkFor func(int) enum.Sink) []BatchResult {
	res := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return res
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}

	done := make([]atomic.Bool, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < parallelism; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := GetScratch()
			defer PutScratch(s)
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				q := queries[i]
				if q.Opts.Ctx == nil {
					q.Opts.Ctx = ctx
				}
				res[i].Stats, res[i].Err = QueryWith(g, q.K, q.W, sinkFor(i), q.Opts, s)
				if res[i].Err != nil && ctx != nil && res[i].Err == ctx.Err() {
					res[i].Cancelled = true
				}
				done[i].Store(true)
			}
		}()
	}
	wg.Wait()

	// Items no worker reached before the cancellation.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			for i := range res {
				if !done[i].Load() {
					res[i].Err = err
					res[i].Cancelled = true
				}
			}
		}
	}
	return res
}
