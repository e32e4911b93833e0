// Package core wires the paper's framework together (Figure 3): it runs the
// CoreTime phase (vertex core times + edge core window skylines, package
// vct) and then one of the three enumeration algorithms — the optimal Enum,
// the straightforward EnumBase, or the OTCD baseline — over a query
// (k, [Ts, Te]), reporting the intermediate sizes the paper analyses
// (|VCT|, |ECS|, |R|). Both phases run on pooled Scratch state, and
// QueryBatch spreads many queries over a worker pool with one Scratch per
// worker.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/otcd"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// Scratch bundles the reusable working state of both query phases — the
// CoreTime phase's vectors and the enumerator's edge slots — so one
// warmed-up Scratch makes a whole repeated (k, window) query allocate close
// to nothing. The zero value is ready; a Scratch serves one query at a time.
type Scratch struct {
	vct  vct.Scratch
	enum enum.Scratch
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the shared pool.
//
// tkc:pool-get
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the shared pool; the caller must not use
// it afterwards.
//
// tkc:pool-put
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// Algorithm selects the enumeration strategy.
type Algorithm int

const (
	// AlgoEnum is the paper's optimal algorithm (Algorithms 2+4+5),
	// O(|VCT|·deg_avg + |R|).
	AlgoEnum Algorithm = iota
	// AlgoEnumBase is the straightforward method (Algorithms 2+3),
	// O(|VCT|·deg_avg + tmax² + dedup).
	AlgoEnumBase
	// AlgoOTCD is the decremental state-of-the-art baseline.
	AlgoOTCD
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoEnum:
		return "Enum"
	case AlgoEnumBase:
		return "EnumBase"
	case AlgoOTCD:
		return "OTCD"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a query run.
type Options struct {
	Algorithm Algorithm
	// EnumBase options.
	HashOnlyDedup bool
	// OTCD options.
	OTCD otcd.Options
	// Stop, when non-nil, imposes a time limit on the quadratic algorithms
	// (EnumBase, OTCD); it is polled once per start time.
	Stop func() bool
	// Ctx, when non-nil, cancels the whole query: both the CoreTime settle
	// loop and the enumeration poll it with a bounded stride and the query
	// returns Ctx.Err(). A nil Ctx (the zero value) never cancels.
	Ctx context.Context
}

// StopFromCtx converts a context into a poll hook for the stride-gated
// cancellation checks of the engines, or nil when the context can never be
// cancelled. Shared by every execution layer so the polling semantics live
// in one place.
func StopFromCtx(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// mergeStop combines two optional poll hooks.
func mergeStop(a, b func() bool) func() bool {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func() bool { return a() || b() }
}

// Stats reports per-phase measurements of one query run.
type Stats struct {
	VCTSize  int // |VCT|: vertex core time index entries
	ECSSize  int // |ECS|: minimal core windows over all edges
	CoreTime time.Duration
	EnumTime time.Duration
	Stopped  bool // the sink ended the enumeration early
}

// Query validates and runs a time-range k-core query, streaming every
// distinct temporal k-core to sink. Working state is drawn from the shared
// scratch pool; QueryWith accepts caller-owned state instead.
func Query(g *tgraph.Graph, k int, w tgraph.Window, sink enum.Sink, opts Options) (Stats, error) {
	s := GetScratch()
	defer PutScratch(s)
	return QueryWith(g, k, w, sink, opts, s)
}

// QueryWith is Query running entirely on the caller's Scratch, so repeated
// queries reuse one allocation high-water mark. Each concurrent query needs
// its own Scratch (see QueryBatch).
func QueryWith(g *tgraph.Graph, k int, w tgraph.Window, sink enum.Sink, opts Options, s *Scratch) (Stats, error) {
	var st Stats
	if g == nil {
		return st, fmt.Errorf("core: nil graph")
	}
	if k < 1 {
		return st, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if !w.Valid() || w.End > g.TMax() {
		return st, fmt.Errorf("core: window [%d,%d] outside graph range [1,%d]", w.Start, w.End, g.TMax())
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return st, err
		}
	}
	cancel := StopFromCtx(opts.Ctx)

	if opts.Algorithm == AlgoOTCD {
		oo := opts.OTCD
		if oo.Stop == nil {
			oo.Stop = opts.Stop
		}
		oo.Stop = mergeStop(oo.Stop, cancel)
		start := time.Now()
		ok := otcd.Enumerate(g, k, w, sink, oo)
		st.EnumTime = time.Since(start)
		st.Stopped = !ok
		if err := ctxErr(opts.Ctx); err != nil {
			return st, err
		}
		return st, nil
	}

	start := time.Now()
	ix, ecs, err := vct.BuildScratchStop(g, k, w, &s.vct, cancel)
	if err != nil {
		if errors.Is(err, vct.ErrStopped) {
			if cerr := ctxErr(opts.Ctx); cerr != nil {
				err = cerr
			}
		}
		return st, err
	}
	st.CoreTime = time.Since(start)
	st.VCTSize = ix.Size()
	st.ECSSize = ecs.Size()

	start = time.Now()
	var ok bool
	switch opts.Algorithm {
	case AlgoEnum:
		var cancelled bool
		ok, cancelled = enum.EnumerateStop(g, ecs, sink, &s.enum, cancel)
		if cancelled {
			st.EnumTime = time.Since(start)
			if err := ctxErr(opts.Ctx); err != nil {
				return st, err
			}
		}
	case AlgoEnumBase:
		ok = enum.EnumerateBase(g, ecs, sink, enum.BaseOptions{HashOnlyDedup: opts.HashOnlyDedup, Stop: mergeStop(opts.Stop, cancel)})
		if err := ctxErr(opts.Ctx); err != nil {
			st.EnumTime = time.Since(start)
			return st, err
		}
	default:
		return st, fmt.Errorf("core: unknown algorithm %v", opts.Algorithm)
	}
	st.EnumTime = time.Since(start)
	st.Stopped = !ok
	return st, nil
}

// EnumeratePrebuilt runs only the enumeration phase of a query against
// prebuilt CoreTime tables — a serving-cache entry, or any immutable
// (Index, ECS) pair built for exactly this (g, k, w) — so repeat queries
// pay O(lookup + |R|) instead of the CoreTime phase. Stats.CoreTime stays
// zero: the build cost was paid by whoever produced the tables. Only the
// optimal AlgoEnum consumes prebuilt tables.
func EnumeratePrebuilt(g *tgraph.Graph, ix *vct.Index, ecs *vct.ECS, sink enum.Sink, opts Options, s *Scratch) (Stats, error) {
	var st Stats
	if g == nil {
		return st, fmt.Errorf("core: nil graph")
	}
	if ix == nil || ecs == nil {
		return st, fmt.Errorf("core: nil prebuilt tables")
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return st, err
	}
	st.VCTSize = ix.Size()
	st.ECSSize = ecs.Size()
	start := time.Now()
	ok, cancelled := enum.EnumerateStop(g, ecs, sink, &s.enum, StopFromCtx(opts.Ctx))
	st.EnumTime = time.Since(start)
	if cancelled {
		if err := ctxErr(opts.Ctx); err != nil {
			return st, err
		}
	}
	st.Stopped = !ok
	return st, nil
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
