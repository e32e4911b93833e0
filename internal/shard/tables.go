package shard

import (
	"context"
	"sync"
	"time"

	"temporalkcore/internal/core"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// Tables is the CoreTime phase of one span, as Resolve found or built it.
type Tables struct {
	Ix  *vct.Index
	Ecs *vct.ECS
	// Outcome is how the span's cache entry was obtained. Builds that
	// bypass the cache report Built.
	Outcome qcache.Outcome
	// Patched reports that a boundary re-settle extended a sealed shard's
	// cached local index across its cut.
	Patched bool
	// CoreTime is the build and re-settle time this resolution paid: zero
	// when resident tables served the span as they were.
	CoreTime time.Duration
}

// Resolve returns the CoreTime tables of span sp for a k query on g.
//
// A sealed span serves from its shard's cached local index, built once per
// (seal, k) under the shard's cache key namespace and so immune to epoch
// retirement. A PatchScratch re-settle extends it across the cut: cached
// core times at or below the cut are pinned exact, and exactly the
// vertices whose core windows cross the cut re-settle against the suffix.
// Any other span (the frontier's, or a whole unsharded window) is an
// ordinary epoch-keyed cached build. Without a cache, or for a key known
// to exceed the cache budget, the span's window builds directly on vs.
//
// Tables built or patched on vs stay valid until vs is reused. stop
// cancels a build or re-settle, which then returns ctx's error.
func Resolve(ctx context.Context, g *tgraph.Graph, k int, cache *qcache.Cache, sp Span, vs *vct.Scratch, stop func() bool) (Tables, error) {
	var t Tables
	var err error
	switch {
	case cache == nil:
	case !sp.Sealed:
		key := qcache.Key{Seq: g.MutSeq(), K: k, W: sp.Task, Algo: qcache.AlgoEnum}
		t, err = cached(ctx, g, k, cache, key, sp.Task, stop)
	default:
		key := qcache.Key{Seq: sp.Seq, K: k, W: sp.Local, Algo: qcache.AlgoEnum, Shard: uint32(sp.Shard + 1)}
		t, err = cached(ctx, g, k, cache, key, sp.Local, stop)
		if err == nil && t.Ix != nil && sp.Task != sp.Local {
			began := time.Now()
			t.Ix, t.Ecs, t.Patched, err = vct.PatchScratchStop(g, k, sp.Task, t.Ix, sp.Local.End+1, vs, stop)
			t.CoreTime += time.Since(began)
		}
	}
	if err == nil && t.Ecs == nil {
		began := time.Now()
		t.Ix, t.Ecs, err = vct.BuildScratchStop(g, k, sp.Task, vs, stop)
		t.Outcome, t.CoreTime = qcache.Built, time.Since(began)
	}
	return t, core.StopErr(ctx, err)
}

// cached resolves key's cache entry, building w's tables on a miss. A key
// known to exceed the cache budget resolves to no tables, which the caller
// builds without the cache.
func cached(ctx context.Context, g *tgraph.Graph, k int, cache *qcache.Cache, key qcache.Key, w tgraph.Window, stop func() bool) (Tables, error) {
	if cache.Uncacheable(key) {
		return Tables{}, nil
	}
	ent, how, err := cache.GetOrBuild(ctx, key, func() (*qcache.Entry, error) {
		began := time.Now()
		ix, ecs, err := vct.BuildStop(g, k, w, stop)
		if err != nil {
			return nil, core.StopErr(ctx, err)
		}
		return qcache.NewEntry(ix, ecs, time.Since(began)), nil
	})
	if err != nil {
		return Tables{}, err
	}
	t := Tables{Ix: ent.Ix, Ecs: ent.Ecs, Outcome: how}
	if how == qcache.Built {
		t.CoreTime = ent.CoreTime
	}
	return t, nil
}

// Counts are one shard's monotone serving counters.
type Counts struct {
	Tasks     int64 // spans the shard served
	CacheHits int64 // spans whose CoreTime tables were resident or shared
	Patched   int64 // spans that ran a boundary re-settle
}

// Counters holds the serving counters of every shard of one sharded
// graph. The set grows as sealing adds shards. Safe for concurrent use.
type Counters struct {
	mu     sync.Mutex
	shards []Counts // tkc:guardedby mu
}

// Add counts one span of shard i, served from tables t.
func (c *Counters) Add(i int, t Tables) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.shards) <= i {
		c.shards = append(c.shards, Counts{})
	}
	s := &c.shards[i]
	s.Tasks++
	if t.Outcome != qcache.Built {
		s.CacheHits++
	}
	if t.Patched {
		s.Patched++
	}
}

// Get returns shard i's counters: zero for a shard that served no span.
func (c *Counters) Get(i int) Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.shards) {
		return Counts{}
	}
	return c.shards[i]
}
