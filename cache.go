package temporalkcore

import (
	"context"
	"time"

	"temporalkcore/internal/core"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// DefaultCacheMaxBytes is the serving cache's byte budget when
// CacheOptions.MaxBytes is unset: enough to keep the CoreTime tables of a
// few dozen hot (epoch, k, window) combinations resident on a typical
// serving graph without competing with the graph itself for memory.
const DefaultCacheMaxBytes = 64 << 20

// CacheOptions configures the graph's serving cache; see SetCacheOptions.
type CacheOptions struct {
	// MaxBytes bounds the estimated resident cost of cached CoreTime
	// tables; the least recently used entries are evicted beyond it.
	// <= 0 means DefaultCacheMaxBytes.
	MaxBytes int64

	// Disable turns the cache off: every query runs its own CoreTime
	// phase on pooled scratch (the pre-cache behaviour). Disable when the
	// workload never repeats an (epoch, k, window) combination — a
	// one-shot analytical sweep over distinct windows — so misses don't
	// pay the cache's insert-and-evict bookkeeping for entries nothing
	// will ever hit.
	Disable bool
}

// CacheStats reports the serving cache's counters; see Graph.CacheStats.
type CacheStats struct {
	Hits   int64 // queries served from a resident entry (CoreTime skipped)
	Misses int64 // queries that ran a CoreTime build
	// SingleflightShared counts queries that found an identical build in
	// flight and shared its result instead of building — N concurrent
	// identical queries under load cost one CoreTime phase.
	SingleflightShared int64
	Evictions          int64 // entries dropped by the MaxBytes LRU bound
	Retired            int64 // entries dropped because their epoch was retired
	// Oversize counts builds whose tables exceeded the whole MaxBytes
	// budget and were refused admission; repeat queries on such keys take
	// the uncached pooled-scratch path instead of rebuilding.
	Oversize int64

	Entries int   // resident entries
	Bytes   int64 // estimated resident bytes
}

// SetCacheOptions reconfigures the serving cache shared by the graph, its
// snapshots and its watchers. The cache memoises compiled CoreTime results
// — the vertex core time index and edge core window skylines, not
// materialised cores — keyed by (epoch seq, k, window, algorithm), so a
// repeated serving query on the same epoch skips the CoreTime phase
// entirely and pays only the output-proportional enumeration.
//
// Keys embed the epoch sequence number (see Snapshot.Seq), which on an
// append-only graph identifies the graph state exactly: entries can never
// go stale, appends simply mint new keys, and entries of retired epochs
// are dropped when the serving layer drains them. The cache is enabled by
// default with DefaultCacheMaxBytes; replacing the configuration resets
// the counters and drops every resident entry. Safe to call from any
// goroutine, though entries built under the old configuration are lost,
// and a Watcher keeps using the cache instance captured when Watch was
// called — reconfigure before creating watchers.
func (g *Graph) SetCacheOptions(o CacheOptions) {
	if o.Disable {
		g.hub.cache.Store(nil)
		return
	}
	max := o.MaxBytes
	if max <= 0 {
		max = DefaultCacheMaxBytes
	}
	g.hub.cache.Store(qcache.New(max))
}

// CacheStats returns the serving cache's counters since the graph (or the
// last SetCacheOptions call) was created. All zero when the cache is
// disabled. Safe from any goroutine.
func (g *Graph) CacheStats() CacheStats {
	c := g.cache()
	if c == nil {
		return CacheStats{}
	}
	st := c.Stats()
	return CacheStats{
		Hits:               st.Hits,
		Misses:             st.Misses,
		SingleflightShared: st.SingleflightShared,
		Evictions:          st.Evictions,
		Retired:            st.Retired,
		Oversize:           st.Oversize,
		Entries:            st.Entries,
		Bytes:              st.Bytes,
	}
}

// cache returns the hub's serving cache, or nil when disabled.
func (g *Graph) cache() *qcache.Cache { return g.hub.cache.Load() }

// cacheKey is the serving-cache key of a compiled Enum (k, window) plan
// on this graph state. Only the optimal Enum's CoreTime phase is memoised:
// OTCD has none, and EnumBase exists to be measured against Enum, which
// serving it from Enum's entries would defeat. The discriminator is
// qcache's canonical constant, shared with the dyn refresh path, so keys
// stay stable if Algorithm values are ever reordered. One-shot, prepared
// and sharded requests all key their tables here.
func (g *Graph) cacheKey(k int, w tgraph.Window) qcache.Key {
	return qcache.Key{Seq: g.g.MutSeq(), K: k, W: w, Algo: qcache.AlgoEnum}
}

// buildCacheEntry runs the CoreTime phase for (k, w) with self-owned
// outputs, as a qcache build function: cancellation arrives as ctx's error.
func (g *Graph) buildCacheEntry(ctx context.Context, k int, w tgraph.Window) (*qcache.Entry, error) {
	began := time.Now()
	ix, ecs, err := vct.BuildStop(g.g, k, w, core.StopFromCtx(ctx))
	if err != nil {
		return nil, core.StopErr(ctx, err)
	}
	return qcache.NewEntry(ix, ecs, time.Since(began)), nil
}
