package temporalkcore

import (
	"context"
	"fmt"
	"time"

	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// PreparedQuery holds the CoreTime phase of a query (the vertex core time
// index and the edge core window skylines) so that several enumerations —
// full scans, early-stopping scans, counts, vertex-set projections — can
// share one O(|VCT|·deg_avg) construction. A PreparedQuery is immutable and
// safe for concurrent use.
//
// A PreparedQuery pins the graph state it was prepared on: prepare on a
// Snapshot (frozen epoch) to keep enumerating that exact state — safely
// and lock-free — while the live graph appends concurrently; prepare on
// the live Graph only if no Append will run during enumerations.
type PreparedQuery struct {
	g        *Graph
	k        int
	w        tgraph.Window
	ix       *vct.Index
	ecs      *vct.ECS
	coreTime time.Duration // CoreTime phase cost paid by Prepare
}

// Prepare runs the CoreTime phase for (k, [start, end]) and returns a
// reusable query handle. With the serving cache enabled, Prepare first
// consults it under (epoch seq, k, window): a hit adopts the cached tables
// without recomputing anything (PrepareTime then reports ~zero — the cost
// was paid by whichever execution built the entry), and a miss inserts the
// freshly built tables so later queries on the same graph state hit.
//
// Prepare is not cancellable; a cold prepare on a large window runs its
// full CoreTime build. Use PrepareContext to bound it with a deadline.
//
// tkc:allow-background: ctx-less convenience form of PrepareContext
func (g *Graph) Prepare(k int, start, end int64) (*PreparedQuery, error) {
	return g.PrepareContext(context.Background(), k, start, end)
}

// PrepareContext is Prepare with cancellation: a cold prepare polls ctx
// inside the CoreTime settle loop with a bounded stride and returns
// ctx.Err() when it fires, leaving the cache untouched; a cache hit costs
// one lookup and never blocks on ctx. A nil ctx means context.Background.
//
// tkc:allow-background: a nil ctx means context.Background
func (g *Graph) PrepareContext(ctx context.Context, k int, start, end int64) (*PreparedQuery, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return nil, fmt.Errorf("temporalkcore: k must be >= 1, got %d", k)
	}
	w, err := g.window(start, end)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	build := func() (*qcache.Entry, error) { return g.buildCacheEntry(ctx, k, w) }
	var ent *qcache.Entry
	how := qcache.Built
	if c := g.cache(); c != nil {
		ent, how, err = c.GetOrBuild(ctx, g.cacheKey(k, w), build)
	} else {
		ent, err = build()
	}
	if err != nil {
		return nil, err
	}
	p := &PreparedQuery{g: g, k: k, w: w, ix: ent.Ix, ecs: ent.Ecs}
	if how == qcache.Built {
		p.coreTime = ent.CoreTime
	}
	return p, nil
}

// K returns the query's core parameter.
func (p *PreparedQuery) K() int { return p.k }

// Range returns the query range in raw timestamps.
func (p *PreparedQuery) Range() (start, end int64) { return p.g.g.RawWindow(p.w) }

// VCTSize returns |VCT|, the number of core-time index entries.
func (p *PreparedQuery) VCTSize() int { return p.ix.Size() }

// ECSSize returns |ECS|, the number of minimal core windows.
func (p *PreparedQuery) ECSSize() int { return p.ecs.Size() }

// PrepareTime returns the wall time the CoreTime phase took in Prepare.
// It is deliberately not repeated in each execution's QueryStats:
// the cost was paid once, and summing per-call stats would over-count it.
func (p *PreparedQuery) PrepareTime() time.Duration { return p.coreTime }

// CoreTime returns the core time of a vertex label for a raw start time:
// the earliest raw end time te such that the vertex is in the k-core of
// [ts, te], with infinite=true when there is none. ts is clamped into the
// prepared range.
func (p *PreparedQuery) CoreTime(label int64, ts int64) (te int64, infinite bool, err error) {
	v, ok := p.g.g.VertexOf(label)
	if !ok {
		return 0, false, fmt.Errorf("temporalkcore: unknown vertex %d", label)
	}
	rank := p.g.g.RankCeil(ts)
	if rank < p.w.Start {
		rank = p.w.Start
	}
	if rank > p.w.End {
		return 0, true, nil
	}
	ct := p.ix.CoreTime(v, rank)
	if ct == tgraph.InfTime {
		return 0, true, nil
	}
	return p.g.g.RawTime(ct), false, nil
}
