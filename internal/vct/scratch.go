package vct

import (
	"sync"

	"temporalkcore/internal/ds"
	"temporalkcore/internal/tgraph"
)

// Scratch holds every piece of working state the CoreTime builder needs —
// the core-time and record vectors, the window's own adjacency, the
// worklist and its membership bits, and the output arenas — so repeated
// Build calls reuse one allocation high-water mark instead of
// re-allocating ~10 O(|V|)/O(window) slices per query.
//
// A Scratch is size-adaptive: prepare grows every buffer to the needs of
// the (graph, k, window) at hand and retains the capacity afterwards, so a
// Scratch cycled through a sync.Pool converges to the largest query it has
// served. No build trusts anything an earlier one left behind, so one
// Scratch may serve builds over different graphs in turn. The zero value
// is ready to use. A Scratch must not be used by two builds concurrently; use one
// Scratch per worker (see core.QueryBatch).
type Scratch struct {
	ct      []tgraph.TS // current core time per vertex
	lastRec []tgraph.TS // last value recorded into the index
	incPtr  []int32     // per window vertex: first incident edge with time >= current start

	// The window projection (see builder.project): the pairs with an
	// interaction in the window and each vertex's live neighbours there.
	pairSlot []int32     // per graph pair: its index in wpairs (sparse set, never cleared)
	wpairs   []winPair   // per window pair: graph pair and time-list position
	ft       []tgraph.TS // per window pair: first time >= current start, ∞ past the window
	nbrOff   []int32     // per vertex: start of its list in nbrs (len |V|+1)
	nbrEnd   []int32     // per vertex: end of its live list; eval's pruning shrinks it
	nbrs     []winNbr

	ect []tgraph.TS // per edge (eid-lo): current edge core time

	q       ds.Queue
	inQ     []bool
	buf     []tgraph.TS  // k-slot selection buffer of eval/lowerBound
	ties    int32        // values outside buf equal to its k-th (see insertKth)
	changed []tgraph.VID // vertices raised during the current transition
	chMark  []bool

	// sup is per vertex a lower bound on its support, the number of
	// contributions at or below its core time: exact after each eval,
	// lowered by one on each crossing (see dropSupport). prepare zeroes
	// it, so a vertex this build never evaluated (a patch's pinned
	// vertices) is queued on its first crossing.
	sup []int32

	vctRecs []vctRec
	ecsRecs []ecsRec

	cur []int32 // counting-sort cursor of the output assembly

	// Patch-only state (see PatchScratch). frozen is truncated to zero
	// length by prepare, so normal builds skip the frozen gate in push.
	frozen []bool  // per vertex: cached core time is exact, keep pinned
	entIdx []int32 // per vertex: absolute index of its active cached entry
	bktOff []int32 // cached entries bucketed by start time
	bktU   []tgraph.VID

	// Arena-backed outputs of BuildScratch; aliased, not returned to
	// callers of the copying Build.
	ix  Index
	ecs ECS

	// half runs the later part of a split build (see builder.split). It
	// stays with this Scratch, in the pool too, so a warm Scratch makes
	// warm split builds: a helper drawn from the pool on each split would
	// miss whenever the caller had moved to another P since its last Put
	// (sync.Pool keeps a P's last Put private to that P).
	half *helper
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the shared pool.
//
// tkc:pool-get
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the shared pool. The caller must not use
// the Scratch — or any BuildScratch output backed by it — afterwards.
//
// tkc:pool-put
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// prepare sizes the scratch for one build. Buffers that the build fully
// overwrites are only re-lengthed; the worklist state and the support
// counts are cleared.
func (s *Scratch) prepare(g *tgraph.Graph, nEdges int) {
	n := g.NumVertices()
	s.ct = ds.Grow(s.ct, n)
	s.lastRec = ds.Grow(s.lastRec, n)
	s.incPtr = ds.Grow(s.incPtr, n)
	s.pairSlot = ds.Grow(s.pairSlot, g.NumPairs())
	// A window has at most min(edges, pairs) pairs, so project's appends
	// never reallocate.
	np := min(nEdges, g.NumPairs())
	s.wpairs = ds.Grow(s.wpairs, np)[:0]
	s.ft = ds.Grow(s.ft, np)[:0]
	s.ect = ds.Grow(s.ect, nEdges)
	s.inQ = ds.GrowZero(s.inQ, n)
	s.chMark = ds.GrowZero(s.chMark, n)
	s.sup = ds.GrowZero(s.sup, n)
	s.q.Reset()
	s.frozen = s.frozen[:0]
	s.buf = s.buf[:0]
	s.changed = s.changed[:0]
	s.vctRecs = s.vctRecs[:0]
	s.ecsRecs = s.ecsRecs[:0]
}

// winPair is one pair with an interaction in the query window.
type winPair struct {
	p   int32 // graph pair index
	ptr int32 // position of the pair's current first time in g.PairTimes(p)
}

// winNbr is one entry of a vertex's window-local neighbour list.
type winNbr struct {
	v    tgraph.VID
	pair int32 // index into the window's pairs
}
