package temporalkcore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"temporalkcore/internal/shard"
	"temporalkcore/internal/tgraph"
)

// ShardOptions configures a ShardedGraph.
type ShardOptions struct {
	// Shards is the initial partition count: the existing history is cut
	// into this many contiguous time-range shards (edge-count quantiles),
	// the last of which is the open frontier. <= 1 starts with a single
	// frontier shard and lets sealing grow the set.
	Shards int

	// MaxShardEdges, when > 0, seals the frontier automatically once it
	// holds at least this many edges (checked at each Append, before its
	// batch applies). 0 means sealing is manual (Seal).
	MaxShardEdges int
}

// ShardedGraph partitions one temporal graph's time axis into contiguous
// time-range shards for storage, behind the same Query API. The shards
// share one spine graph, and a query on a view runs exactly as the
// unsharded query of the same window on the view's epoch: the paper's
// enumeration is bounded by its own output once core times are known, so
// splitting a window across shards would only add work. A sharded query
// additionally reports how many shards its window overlaps.
//
// The append-only frontier keeps the partition trivially consistent: only
// the newest shard accepts appends, and Seal freezes it at a cut one rank
// below the current maximum timestamp — a range no later Append can touch
// — then opens a new frontier above it. A durable sharded graph keeps the
// spine's snapshot and WAL and records only the cuts, in a manifest
// (BootstrapShardedDir, OpenShardedDir).
//
// A ShardedGraph is single-writer (Append/Seal/Close from one goroutine
// or externally serialised); reads — Latest, Query, stats — are safe from
// any goroutine, any number concurrently.
type ShardedGraph struct {
	opts ShardOptions

	spine *Graph // the whole history; single-writer
	view  atomic.Pointer[ShardedView]

	// Readers never touch dir directly — they use the published view.
	// st is nil without durability.
	mu  sync.Mutex       // writer lock: Append, Seal, Close
	dir *shard.Directory // tkc:guardedby mu
	st  *shardStore      // tkc:guardedby mu
}

// ShardedView is one published epoch of a sharded graph paired with the
// shard directory that was current when it was published: a query planned
// on a view reads that epoch and counts that directory's shards, so
// concurrent appends and seals never shift the data under a running
// query.
//
// tkc:frozensource
type ShardedView struct {
	sg   *ShardedGraph
	snap *Snapshot
	dir  *shard.Directory
}

// NewSharded builds a sharded graph from an edge list; see ShardGraph for
// the partitioning rules.
func NewSharded(edges []Edge, o ShardOptions) (*ShardedGraph, error) {
	g, err := NewGraph(edges)
	if err != nil {
		return nil, err
	}
	return ShardGraph(g, o)
}

// ShardGraph wraps an existing graph as a sharded one, cutting its
// history into o.Shards contiguous time-range shards at edge-count
// quantiles (the last shard, the frontier, keeps at least the newest
// timestamp rank and stays appendable). The graph becomes the sharded
// graph's spine: keep reading it if you like, but append only through the
// ShardedGraph from now on.
func ShardGraph(g *Graph, o ShardOptions) (*ShardedGraph, error) {
	cuts := partitionCuts(g.g, o.Shards)
	dir, err := shard.NewDirectory(cuts)
	if err != nil {
		return nil, fmt.Errorf("temporalkcore: %w", err)
	}
	sg := &ShardedGraph{
		opts:  o,
		spine: g,
		dir:   dir,
	}
	sg.publishLocked()
	return sg, nil
}

// partitionCuts places parts-1 cuts at edge-count quantiles, each clamped
// below the frontier rank (TMax-1) so the newest timestamp always stays
// appendable.
func partitionCuts(tg *tgraph.Graph, parts int) []shard.Cut {
	if parts < 2 || tg.TMax() < 2 {
		return nil
	}
	m := tg.NumEdges()
	seq := tg.MutSeq()
	var cuts []shard.Cut
	prev := tgraph.TS(0)
	for i := 1; i < parts; i++ {
		r := tg.Edge(tgraph.EID(m * i / parts)).T
		if r > tg.TMax()-1 {
			r = tg.TMax() - 1
		}
		if r <= prev {
			continue
		}
		cuts = append(cuts, shard.Cut{RawEnd: tg.RawTime(r), End: r, Seq: seq})
		prev = r
	}
	return cuts
}

// publishLocked publishes the spine's current state and the current
// directory as one composite view.
//
// tkc:guardheld mu: callers hold sg.mu (or own the still-unshared graph
// during construction)
func (sg *ShardedGraph) publishLocked() {
	snap := sg.spine.Publish()
	sg.view.Store(&ShardedView{sg: sg, snap: snap, dir: sg.dir})
}

// Latest returns the most recently published view: one atomic load, safe
// from any goroutine.
//
// tkc:frozensource
func (sg *ShardedGraph) Latest() *ShardedView { return sg.view.Load() }

// Query starts a sharded request on the latest view; see
// ShardedView.Query.
func (sg *ShardedGraph) Query(k int) *Request { return sg.Latest().Query(k) }

// Append adds a batch of edges to the frontier shard, with Graph.Append
// semantics (non-decreasing timestamps, batch atomicity), then publishes a
// new view. When MaxShardEdges is configured and the frontier has grown
// past it, the frontier is sealed before the batch applies, so a failed
// seal returns its error with the batch unapplied: an error always means
// the batch left no trace. Writer-only. Implements AppendSink, so stream
// ingestion (AppendReader) and the serving layer batch through a
// ShardedGraph unchanged.
func (sg *ShardedGraph) Append(edges ...Edge) (int, error) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	sealed := false
	if sg.opts.MaxShardEdges > 0 && sg.frontierEdgesLocked() >= sg.opts.MaxShardEdges {
		var err error
		if sealed, err = sg.sealLocked(); err != nil {
			return 0, err
		}
	}
	var added int
	var err error
	if sg.st != nil {
		added, err = sg.st.append(edges)
	} else {
		added, err = sg.spine.Append(edges...)
	}
	if err == nil || sealed {
		sg.publishLocked()
	}
	if err != nil {
		return 0, err
	}
	return added, nil
}

// frontierEdgesLocked counts the open frontier's edges.
//
// tkc:guardheld mu: callers hold sg.mu
func (sg *ShardedGraph) frontierEdgesLocked() int {
	tg := sg.spine.g
	start := tgraph.TS(1)
	if n := sg.dir.NumSealed(); n > 0 {
		start = sg.dir.Cuts()[n-1].End + 1
	}
	if start > tg.TMax() {
		return 0
	}
	lo, hi := tg.EdgesIn(tgraph.Window{Start: start, End: tg.TMax()})
	return int(hi - lo)
}

// Seal freezes the current frontier shard into an immutable sealed shard
// and opens a new frontier above it, publishing the grown directory. The
// cut lands one rank below the current maximum timestamp — Append may
// still add edges at the maximum, so the sealed range is structurally
// immune to later writes. Returns false when there is nothing to seal
// (the frontier holds fewer than two timestamp ranks). Writer-only.
func (sg *ShardedGraph) Seal() (bool, error) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	sealed, err := sg.sealLocked()
	if err != nil {
		return false, err
	}
	if sealed {
		sg.publishLocked()
	}
	return sealed, nil
}

// sealLocked cuts at rank TMax-1 if that extends the directory.
//
// tkc:guardheld mu: callers hold sg.mu
func (sg *ShardedGraph) sealLocked() (bool, error) {
	tg := sg.spine.g
	cut := tg.TMax() - 1
	last := tgraph.TS(0)
	if n := sg.dir.NumSealed(); n > 0 {
		last = sg.dir.Cuts()[n-1].End
	}
	if cut <= last {
		return false, nil
	}
	c := shard.Cut{RawEnd: tg.RawTime(cut), End: cut, Seq: tg.MutSeq()}
	d, err := sg.dir.Seal(c)
	if err != nil {
		return false, fmt.Errorf("temporalkcore: %w", err)
	}
	if sg.st != nil {
		if err := sg.st.syncShards(d); err != nil {
			return false, err
		}
	}
	sg.dir = d
	return true, nil
}

// NumShards returns the current shard count (sealed shards plus the
// frontier) of the latest view.
func (sg *ShardedGraph) NumShards() int { return sg.Latest().dir.NumShards() }

// Spine returns the underlying whole-history graph. Read freely (its
// queries run unsharded on the same epochs and share the same serving
// cache); mutate only through the ShardedGraph.
func (sg *ShardedGraph) Spine() *Graph { return sg.spine }

// SetCacheOptions reconfigures the serving cache of the spine, which its
// snapshots and every sharded view's queries share; see
// Graph.SetCacheOptions.
func (sg *ShardedGraph) SetCacheOptions(o CacheOptions) { sg.spine.SetCacheOptions(o) }

// CacheStats reports the shared serving cache; see Graph.CacheStats.
func (sg *ShardedGraph) CacheStats() CacheStats { return sg.spine.CacheStats() }

// Close releases the durable store, if any; a sharded graph without one
// holds nothing to release. Safe to call twice.
func (sg *ShardedGraph) Close() error {
	sg.mu.Lock()
	st := sg.st
	sg.st = nil
	sg.mu.Unlock()
	if st != nil {
		return st.Close()
	}
	return nil
}

// ShardStats describes one shard of a published view.
type ShardStats struct {
	ID     int
	Sealed bool

	// StartTime and EndTime are the shard's inclusive raw-time bounds on
	// the view's epoch (the frontier's EndTime is the newest timestamp).
	StartTime, EndTime int64
	Edges              int   // edges in the shard's range
	Seq                int64 // seal-time mutation sequence; 0 for the frontier
}

// ShardStats reports the latest view's shards in time order.
func (sg *ShardedGraph) ShardStats() []ShardStats {
	v := sg.Latest()
	tg := v.snap.g
	cuts := v.dir.Cuts()
	out := make([]ShardStats, 0, v.dir.NumShards())
	start := tgraph.TS(1)
	for i := 0; i < v.dir.NumShards(); i++ {
		end := tg.TMax()
		s := ShardStats{ID: i}
		if i < len(cuts) {
			end = cuts[i].End
			s.Sealed = true
			s.Seq = cuts[i].Seq
		}
		if start <= end {
			lo, hi := tg.EdgesIn(tgraph.Window{Start: start, End: end})
			s.Edges = int(hi - lo)
			s.StartTime = tg.RawTime(start)
			s.EndTime = tg.RawTime(end)
		}
		out = append(out, s)
		start = end + 1
	}
	return out
}

// Seq returns the view's epoch sequence number; see Snapshot.Seq.
func (v *ShardedView) Seq() int64 { return v.snap.Seq() }

// NumShards returns the view's shard count.
func (v *ShardedView) NumShards() int { return v.dir.NumShards() }

// Snapshot returns the view's pinned epoch as an ordinary Snapshot, whose
// queries run unsharded against exactly the same state — the oracle the
// sharded differential tests compare against.
func (v *ShardedView) Snapshot() *Snapshot { return v.snap }

// Query starts a request against this view: the plan pins the view's
// epoch and runs as the unsharded query of the same window on it, with
// the same results, bytes and serving-cache entries, and reports in
// QueryStats.Shards how many of the view's shards the window overlaps. It
// supports the one-shot builder verbs — Window, Project, EarlyStop, Stats
// — plus every execution mode. Algorithm, Snapshot and Using are engine
// overrides of the unsharded path and are rejected.
func (v *ShardedView) Query(k int) *Request {
	r := v.snap.Graph.Query(k)
	r.sview = v
	return r
}
