package temporalkcore

import (
	"fmt"

	"temporalkcore/internal/phc"
	"temporalkcore/internal/shard"
	"temporalkcore/internal/store"
	"temporalkcore/internal/tgraph"
)

// shardStore couples a ShardedGraph with an open data directory: appends
// are WAL-logged before they apply (DurableGraph semantics), and each seal
// rewrites the cut manifest. Writer-side calls arrive under the
// ShardedGraph's writer lock.
type shardStore struct {
	st *store.Store
}

func (ss *shardStore) append(edges []Edge) (int, error) {
	st, err := ss.st.Append(rawEdges(edges))
	if err != nil {
		return 0, fmt.Errorf("temporalkcore: %w", err)
	}
	return st.Added, nil
}

func (ss *shardStore) syncShards(d *shard.Directory) error {
	if err := ss.st.SyncShards(manifestCuts(d)); err != nil {
		return fmt.Errorf("temporalkcore: %w", err)
	}
	return nil
}

func (ss *shardStore) Close() error {
	if err := ss.st.Close(); err != nil {
		return fmt.Errorf("temporalkcore: %w", err)
	}
	return nil
}

func manifestCuts(d *shard.Directory) []store.ShardCut {
	cuts := d.Cuts()
	out := make([]store.ShardCut, len(cuts))
	for i, c := range cuts {
		out[i] = store.ShardCut{ID: i, RawEnd: c.RawEnd, End: int64(c.End), Seq: c.Seq}
	}
	return out
}

// BootstrapShardedDir creates a durable sharded graph in an empty data
// directory: the edge list is WAL-logged and applied, the initial
// partition's cuts are written to the manifest, and every later
// Append/Seal through the returned graph is persisted the same way. The
// directory must not already hold a graph.
func BootstrapShardedDir(dir string, edges []Edge, o ShardOptions) (*ShardedGraph, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("temporalkcore: %w", err)
	}
	if st.Graph() != nil {
		st.Close()
		return nil, fmt.Errorf("temporalkcore: data directory %s already holds a graph (seq %d): use OpenShardedDir", dir, st.Seq())
	}
	tg, err := st.Bootstrap(rawEdges(edges))
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("temporalkcore: %w", err)
	}
	sg, err := ShardGraph(newGraph(tg), o)
	if err != nil {
		st.Close()
		return nil, err
	}
	sg.mu.Lock()
	sg.st = &shardStore{st: st}
	err = sg.st.syncShards(sg.dir)
	sg.mu.Unlock()
	if err != nil {
		sg.Close()
		return nil, err
	}
	return sg, nil
}

// OpenShardedDir reopens a durable sharded graph: the spine recovers
// byte-identically through the newest snapshot plus WAL replay (see
// OpenDir), the shard directory is rebuilt from the cut manifest and
// validated against the recovered graph, and spilled serving-cache
// entries are re-admitted. o.Shards is ignored — the partition is
// whatever was sealed — while o.MaxShardEdges configures the reopened
// graph as usual.
func OpenShardedDir(dir string, o ShardOptions) (*ShardedGraph, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("temporalkcore: %w", err)
	}
	tg := st.Graph()
	if tg == nil {
		st.Close()
		return nil, fmt.Errorf("temporalkcore: data directory %s is empty: use BootstrapShardedDir", dir)
	}
	manifest, err := st.ShardManifest()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("temporalkcore: %w", err)
	}
	cuts := make([]shard.Cut, len(manifest))
	for i, c := range manifest {
		// Recovery is byte-identical, so every sealed rank must still map
		// to its raw time; a mismatch means the directory belongs to a
		// different history.
		if c.End < 1 || tgraph.TS(c.End) > tg.TMax() || tg.RawTime(tgraph.TS(c.End)) != c.RawEnd {
			st.Close()
			return nil, fmt.Errorf("temporalkcore: shard manifest cut %d (raw %d, rank %d) does not match the recovered graph", i, c.RawEnd, c.End)
		}
		cuts[i] = shard.Cut{RawEnd: c.RawEnd, End: tgraph.TS(c.End), Seq: c.Seq}
	}
	g := newGraph(tg)
	if c := g.cache(); c != nil {
		// Advisory, like OpenDir: a failed warm load costs only cold
		// first queries.
		st.LoadWarm(c, func(ix *phc.Index) { g.hub.lastHist.Store(ix) })
	}
	o.Shards = 0 // partition comes from the manifest
	sg, err := ShardGraph(g, o)
	if err != nil {
		st.Close()
		return nil, err
	}
	if len(cuts) > 0 {
		d, derr := shard.NewDirectory(cuts)
		if derr != nil {
			st.Close()
			return nil, fmt.Errorf("temporalkcore: %w", derr)
		}
		sg.mu.Lock()
		sg.dir = d
		sg.publishLocked()
		sg.mu.Unlock()
	}
	sg.mu.Lock()
	sg.st = &shardStore{st: st}
	sg.mu.Unlock()
	return sg, nil
}

// Durable reports whether the sharded graph is backed by a data directory
// (built with BootstrapShardedDir or OpenShardedDir).
func (sg *ShardedGraph) Durable() bool {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return sg.st != nil
}

// SnapshotDurable persists the spine like DurableGraph.Snapshot — freeze,
// WAL rotation, atomic segment write, warm-cache spill, compaction — and
// returns the persisted sequence. The spine holds every shard's edges, and
// compaction leaves the cut manifest alone. Errors when the graph is not
// durable.
func (sg *ShardedGraph) SnapshotDurable() (int64, error) {
	sg.mu.Lock()
	ss := sg.st
	if ss == nil {
		sg.mu.Unlock()
		return -1, fmt.Errorf("temporalkcore: sharded graph has no data directory")
	}
	p, err := ss.st.BeginSnapshot()
	sg.mu.Unlock()
	if err != nil {
		return -1, fmt.Errorf("temporalkcore: %w", err)
	}
	if c := sg.spine.cache(); c != nil {
		p.WriteWarm(c) // advisory: a failed spill costs only cold first queries
	}
	if err := p.Commit(); err != nil {
		return p.Seq(), fmt.Errorf("temporalkcore: %w", err)
	}
	return p.Seq(), nil
}
