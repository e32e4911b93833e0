package temporalkcore

import (
	"sync/atomic"

	"temporalkcore/internal/phc"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
)

// epochHub carries the epoch-publication state shared between a live Graph
// and every Snapshot derived from it: the atomically published latest
// epoch readers serve from, and the serving cache of compiled CoreTime
// results every epoch's queries consult (nil when disabled).
type epochHub struct {
	latest atomic.Pointer[Snapshot]
	cache  atomic.Pointer[qcache.Cache]

	// lastHist is the most recently constructed historical PHC index of
	// this graph lineage, the patch oracle of the next HistoricalIndex
	// call: the index fingerprint pins the graph state it answers for, so
	// after an append the next build re-settles only the dirty
	// time-suffix past that state's frontier instead of rebuilding every
	// k slice. One index is retained per graph (the serving cache holds
	// any others); it is replaced wholesale on each build, never mutated.
	lastHist atomic.Pointer[phc.Index]

	// lastPin memoises the frozen epoch the historical tier most recently
	// pinned, so repeat pins of an unchanged never-published graph reuse
	// one freeze instead of copying the segment directories per call.
	lastPin atomic.Pointer[tgraph.Graph]
}

// newGraph wraps an internal graph as a public one with a fresh epoch hub.
// The serving cache starts enabled at its default budget; see
// SetCacheOptions.
func newGraph(tg *tgraph.Graph) *Graph {
	g := &Graph{g: tg, hub: &epochHub{}, origin: tg}
	g.hub.cache.Store(qcache.New(DefaultCacheMaxBytes))
	return g
}

// Snapshot is an immutable point-in-time view of a Graph under the
// snapshot-isolation model: the entire read API — Query and every
// execution mode, Prepare, RunBatch, Watch, CoreTimes, stats accessors —
// works on a Snapshot exactly as on the Graph it was frozen from, and
// keeps answering for that exact state while the live graph appends
// concurrently. Plans compiled from a Snapshot (requests, prepared
// queries, batches) are pinned to its epoch for their whole execution.
//
// A Snapshot is cheap: it copies only the graph's segment directories
// (O(V + pairs + timestamps) words) and shares the edge history arrays
// with the live graph; see the internal Freeze documentation for the
// memory model that makes the sharing safe. Snapshots need no explicit
// release — a retired epoch is reclaimed by the garbage collector once the
// last reader drops it, and so is a retired Watcher view.
//
// Appending to a Snapshot returns an error; append to the live Graph and
// freeze again.
type Snapshot struct {
	*Graph
}

// Seq returns the epoch's mutation sequence number: the number of
// edge-adding appends the live graph had absorbed when this snapshot was
// frozen. It is the key callers use to pair a served result with the
// exact graph state that produced it.
func (s *Snapshot) Seq() int64 { return s.g.MutSeq() }

// Freeze returns a Snapshot of the graph's current state without
// publishing it. Freeze reads the mutable graph, so it must be called from
// the writer goroutine (or while no Append runs); the returned Snapshot
// may then be read from any goroutine, concurrently with further appends.
//
// tkc:frozensource
func (g *Graph) Freeze() *Snapshot {
	return &Snapshot{Graph: &Graph{g: g.g.Freeze(), hub: g.hub, origin: g.origin}}
}

// Publish freezes the graph's current state and publishes it as the
// latest epoch, retiring the previous one; it returns the new Snapshot.
// Like Freeze it is writer-only. Readers obtain the published epoch with
// Latest, so the writer's cadence of Publish calls is the granularity at
// which appended edges become visible to concurrent readers.
//
// Publishing also retires serving-cache entries of epochs older than the
// one being replaced: no Latest call can return those epochs anymore, so
// only a long-held Snapshot could still ask for them (it stays correct —
// its queries just rebuild instead of hitting the cache).
func (g *Graph) Publish() *Snapshot {
	prev := g.hub.latest.Load()
	s := g.Freeze()
	g.hub.latest.Store(s)
	if prev != nil {
		if c := g.cache(); c != nil {
			c.RetireBelow(prev.Seq())
		}
	}
	return s
}

// Latest returns the most recently published epoch, or nil when the graph
// has never been published. It is a single atomic load — safe from any
// goroutine, any number of times, concurrently with the writer — and the
// returned Snapshot stays consistent no matter how far the live graph
// moves on. Epoch visibility is monotone: once a reader has seen sequence
// number S, no later Latest call returns an older epoch.
//
// tkc:frozensource
func (g *Graph) Latest() *Snapshot { return g.hub.latest.Load() }
