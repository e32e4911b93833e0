// Package temporalkcore enumerates temporal k-cores in time-range queries
// on temporal graphs. It implements "Accelerating K-Core Computation in
// Temporal Graphs" (EDBT 2026): given a temporal graph, an integer k and a
// time range [start, end], it streams every distinct k-core appearing in
// the snapshot of any sub-window, each exactly once, in time proportional
// to the size of the output.
//
// Quick start (API v2 — the composable request builder):
//
//	g, err := temporalkcore.NewGraph([]temporalkcore.Edge{
//		{U: 1, V: 2, Time: 10}, {U: 2, V: 3, Time: 11}, {U: 1, V: 3, Time: 12},
//	})
//	cores, err := g.Query(2).Window(10, 12).Collect(ctx)
//
//	for c, err := range g.Query(2).Window(10, 12).Seq(ctx) {
//		... // streamed; break stops the engine after the cores consumed
//	}
//
// Every execution mode — one-shot, prepared (PreparedQuery.Query), batch
// (RunBatch), the live sliding window (Watcher.Query), snapshot
// (k,h)-cores (Request.Snapshot) and the historical PHC index
// (HistoricalIndex.Query) — is reachable through the same Request type,
// and every execution takes a context.Context. The enumeration engines
// cancel both query phases promptly (bounded poll strides in the CoreTime
// settle loop and the enumeration sweep); the single-pass snapshot and
// historical lookups check the context once up front.
//
// Graphs also serve queries while a stream keeps appending: the writer
// publishes immutable epochs (Graph.Publish) and any number of reader
// goroutines query them lock-free via Graph.Latest / Snapshot, or through
// a Watcher's concurrent read path — see the Concurrency model section of
// the README and the Snapshot, Freeze and Watcher documentation.
//
// The package speaks raw timestamps and vertex labels; compression to the
// dense ranks the algorithms need happens internally. Algorithms other than
// the default optimal one (the EnumBase strawman and the OTCD baseline from
// the literature) are exposed for comparison via Request.Algorithm.
package temporalkcore

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"temporalkcore/internal/core"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/kcore"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// Edge is one undirected temporal interaction between two vertex labels at
// a raw timestamp.
type Edge struct {
	U, V int64
	Time int64
}

// Graph is a temporal graph ready for time-range k-core queries. It is
// immutable except for Append, which extends it at the time frontier.
//
// Concurrency model: a Graph is single-writer. All methods are safe for
// concurrent use by readers as long as no Append runs; to serve queries
// while a stream keeps appending, the writer publishes immutable epochs
// (Publish) and readers query them via Latest/Freeze — see Snapshot — or
// through a Watcher, whose read path is lock-free against the writer.
type Graph struct {
	g *tgraph.Graph

	// hub and origin are shared with every Snapshot frozen from this
	// graph: hub carries the published latest epoch, origin identifies the
	// live graph a snapshot derives from (so batches accept requests
	// pinned to different epochs of the same graph).
	hub    *epochHub
	origin *tgraph.Graph
}

// ErrNoTimestamps is returned when a query range covers no timestamp of the
// graph.
var ErrNoTimestamps = errors.New("temporalkcore: query range covers no timestamp of the graph")

// ErrEmptyRange is returned when a query range has start > end. An inverted
// range is a caller bug, distinguished from a well-formed range that merely
// misses every timestamp (ErrNoTimestamps).
var ErrEmptyRange = errors.New("temporalkcore: query range start exceeds end")

// window validates a raw query range and compresses it. Every public entry
// point that takes a (start, end) range resolves it here, so the error
// contract is uniform: ErrEmptyRange for inverted ranges, ErrNoTimestamps
// for ranges covering no timestamp.
func (g *Graph) window(start, end int64) (tgraph.Window, error) {
	return windowOf(g.g, start, end)
}

// windowOf is window against an explicit graph state — used by the
// historical tier, which resolves ranges on a pinned epoch rather than the
// live graph.
func windowOf(tg *tgraph.Graph, start, end int64) (tgraph.Window, error) {
	if start > end {
		return tgraph.Window{}, ErrEmptyRange
	}
	w, ok := tg.CompressRange(start, end)
	if !ok {
		return tgraph.Window{}, ErrNoTimestamps
	}
	return w, nil
}

// NewGraph builds a graph from raw edges. Self loops are dropped and exact
// duplicate edges are collapsed (the paper models the edge set as a set).
func NewGraph(edges []Edge) (*Graph, error) {
	var b tgraph.Builder
	for _, e := range edges {
		b.Add(e.U, e.V, e.Time)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return newGraph(g), nil
}

// Load reads a whitespace-separated temporal edge list ("u v t", or
// "u v w t" with the weight ignored; '#'/'%' comments allowed).
func Load(r io.Reader) (*Graph, error) {
	g, err := tgraph.LoadText(r, tgraph.LoadOptions{})
	if err != nil {
		return nil, err
	}
	return newGraph(g), nil
}

// LoadFile reads an edge-list file; see Load.
func LoadFile(path string) (*Graph, error) {
	g, err := tgraph.LoadTextFile(path, tgraph.LoadOptions{})
	if err != nil {
		return nil, err
	}
	return newGraph(g), nil
}

// Internal returns the underlying internal graph. It is exported for the
// repository's own benchmarks and tools.
func (g *Graph) Internal() *tgraph.Graph { return g.g }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.g.NumVertices() }

// NumEdges returns the number of temporal edges.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// TimestampCount returns the number of distinct timestamps (the paper's
// tmax).
func (g *Graph) TimestampCount() int { return int(g.g.TMax()) }

// TimeSpan returns the smallest and largest raw timestamp.
func (g *Graph) TimeSpan() (min, max int64) {
	return g.g.RawTime(1), g.g.RawTime(g.g.TMax())
}

// KMax returns the maximum core number over the graph's full projection,
// the upper bound for useful query k values.
func (g *Graph) KMax() int { return kcore.KMax(g.g) }

// Core is one temporal k-core result: its tightest time interval in raw
// timestamps and, depending on the request's Projection, its temporal
// edges (ProjectEdges, the default) or its sorted distinct vertex labels
// (ProjectVertices). Under ProjectCount both slices are nil.
type Core struct {
	Start, End int64
	Edges      []Edge
	Vertices   []int64
}

// Algorithm selects the enumeration strategy; see the internal/core docs.
type Algorithm = core.Algorithm

// Re-exported algorithm identifiers.
const (
	AlgoEnum     = core.AlgoEnum
	AlgoEnumBase = core.AlgoEnumBase
	AlgoOTCD     = core.AlgoOTCD
)

// QueryStats reports phase timings and intermediate index sizes of a query.
type QueryStats struct {
	VCTSize int
	ECSSize int
	Cores   int64
	Edges   int64 // |R|: summed edges over all cores

	// CoreTime is the wall time of the CoreTime phase (VCT + ECS
	// construction, Algorithm 2); EnumTime the wall time of the
	// enumeration phase, which for an unlimited Enum Count is the
	// aggregate count over the skyline rather than the walk (see
	// Request.Count). For OTCD everything is EnumTime. A query served
	// from the serving cache reports CoreTime zero — the phase was paid
	// by whichever execution built the entry.
	CoreTime time.Duration
	EnumTime time.Duration

	// CacheHit reports that the CoreTime phase was skipped because the
	// serving cache held (or a concurrent identical build produced) the
	// compiled tables for this (epoch, k, window); see SetCacheOptions.
	CacheHit bool
	// CacheShared reports that this execution neither built nor found the
	// tables resident, but shared a concurrent identical build
	// (singleflight) — a subset of CacheHit.
	CacheShared bool
	// Cut reports that the CoreTime tables were cut from the serving
	// cache's full-range entry of this (epoch, k): the window's own entry
	// was not resident, so the query read the full range's tables inside
	// its window, and cached nothing for it (see Request.Count). A cut is
	// no CacheHit. The query that builds the full-range entry reports a
	// cut too, with that build's CoreTime.
	Cut bool

	// Shards is the number of the view's shards a sharded request's window
	// overlaps; zero for unsharded requests. Every other statistic is the
	// unsharded query's: a sharded request runs exactly as the same query
	// on the view's Snapshot.
	Shards int
	// Patched is always zero: no execution sets it. It is kept so code
	// that reads it still compiles.
	Patched int
}

// CoreTimeEntry is one label of a vertex's core time index in raw
// timestamps: from start times >= Start (until the next entry) the vertex
// first joins a k-core at end time CoreTime; Infinite marks "never again".
type CoreTimeEntry struct {
	Start    int64
	CoreTime int64
	Infinite bool
}

// CoreTimes computes the vertex core time index of a label over
// [start, end] — the VCT of Section IV. It answers "from which window on is
// this vertex part of a k-core".
func (g *Graph) CoreTimes(label int64, k int, start, end int64) ([]CoreTimeEntry, error) {
	v, ok := g.g.VertexOf(label)
	if !ok {
		return nil, fmt.Errorf("temporalkcore: unknown vertex %d", label)
	}
	w, err := g.window(start, end)
	if err != nil {
		return nil, err
	}
	ix, _, err := vct.Build(g.g, k, w)
	if err != nil {
		return nil, err
	}
	var out []CoreTimeEntry
	for _, ent := range ix.Entries(v) {
		e := CoreTimeEntry{Start: g.g.RawTime(ent.Start)}
		if ent.CT == tgraph.InfTime {
			e.Infinite = true
		} else {
			e.CoreTime = g.g.RawTime(ent.CT)
		}
		out = append(out, e)
	}
	return out, nil
}

// VertexSets enumerates the distinct vertex sets of all temporal k-cores in
// [start, end] — the compact representation the paper's future-work section
// proposes. Vertex labels are returned sorted per set.
func (g *Graph) VertexSets(k int, start, end int64) ([][]int64, error) {
	w, err := g.window(start, end)
	if err != nil {
		return nil, err
	}
	sink := enum.NewVertexSetSink(g.g)
	if _, err := core.Query(g.g, k, w, sink, core.Options{Algorithm: core.AlgoEnum}); err != nil {
		return nil, err
	}
	out := make([][]int64, len(sink.Sets))
	for i, set := range sink.Sets {
		labels := make([]int64, len(set))
		for j, v := range set {
			labels[j] = g.g.Label(v)
		}
		sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
		out[i] = labels
	}
	return out, nil
}
