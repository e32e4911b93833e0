// Package qcache memoises compiled CoreTime results for the serving layer:
// a concurrency-safe cache of (vertex core time index, edge core window
// skyline) pairs keyed by (epoch seq, k, window, algorithm). On an
// append-only temporal graph the mutation sequence number identifies the
// graph state exactly, so a published epoch's CoreTime tables are a pure
// function of the key — entries never go stale, they only stop being asked
// for. That makes invalidation structural: new epochs produce new keys,
// and retired epochs' entries are dropped by RetireBelow when the serving
// layer publishes a newer epoch (plus byte-bounded LRU eviction for
// everything else).
//
// The cache also deduplicates concurrent identical builds (singleflight):
// when N goroutines miss on the same key at once, one runs the build and
// the other N-1 wait and share the result, so a thundering herd of
// identical queries under load costs one CoreTime phase.
//
// A window's tables are also the full range's tables cut to the window
// (package vct, "Cut"), so Lookup answers a window whose own entry is
// absent from a resident full-range entry of the same (epoch, k). It
// decides when to build that entry by ski rental: each window build
// charges a cost proxy to its (epoch, k), and once the charges reach the
// full range's predicted cost, the next window buys the full range
// instead of building itself.
//
// Besides per-k CoreTime tables (AlgoEnum keys) the cache holds whole
// historical multi-k PHC indexes (AlgoPHC keys, Entry.Phc payloads) under
// the same epoch keying, LRU budget, singleflight and retirement rules —
// the historical tier's builds are far more expensive than a single
// CoreTime phase, which makes them the cache's best-paying tenants.
package qcache

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"temporalkcore/internal/phc"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// AlgoEnum is the Key.Algo discriminator for the paper's optimal Enum
// algorithm — the only enumeration algorithm whose CoreTime phase is
// memoised today. Every layer that builds keys (the public query paths,
// dyn refreshes) must use this constant rather than a raw algorithm
// value, so keys stay compatible even if the public Algorithm iota order
// ever changes.
const AlgoEnum uint8 = 0

// AlgoPHC is the Key.Algo discriminator for historical multi-k PHC
// indexes (Entry.Phc payloads). PHC keys cover every k at once, so their
// Key.K is always 0 — a value no CoreTime key uses (k >= 1), keeping the
// two families disjoint inside one LRU/retirement domain.
const AlgoPHC uint8 = 1

// Key identifies one compiled CoreTime result. Seq is the graph's mutation
// sequence number at build time (tgraph.Graph.MutSeq) — on an append-only
// graph it pins the exact edge prefix, so equal keys imply byte-identical
// tables. W is the compressed query window, which is stable per seq
// (appends only ever add ranks at the frontier).
type Key struct {
	Seq  int64
	K    int
	W    tgraph.Window
	Algo uint8
}

// Entry is one cached compiled result: immutable, self-owned tables (never
// arena-backed — eviction must not be able to corrupt a reader that still
// holds the entry) plus the wall time the build cost and an estimate of
// the resident bytes the entry pins. CoreTime entries (AlgoEnum keys)
// carry Ix/Ecs; historical index entries (AlgoPHC keys) carry Phc.
type Entry struct {
	Ix  *vct.Index
	Ecs *vct.ECS

	// Phc is the multi-k historical index payload of AlgoPHC entries
	// (nil on CoreTime entries).
	Phc *phc.Index

	// CoreTime is the wall cost of the build that produced the tables.
	CoreTime time.Duration
	// Bytes estimates the entry's resident cost, the unit of the cache's
	// MaxBytes budget. NewEntry fills it from the tables.
	Bytes int64
}

// entryOverhead approximates the fixed per-entry cost (the Index and ECS
// headers, the LRU node, the map slot).
const entryOverhead = 256

// NewEntry wraps self-owned tables as a cache entry. The tables must not
// be backed by a reusable scratch arena: build them with vct.Build /
// vct.BuildStop, or Clone arena-backed ones first.
func NewEntry(ix *vct.Index, ecs *vct.ECS, coreTime time.Duration) *Entry {
	return &Entry{
		Ix:       ix,
		Ecs:      ecs,
		CoreTime: coreTime,
		Bytes:    ix.MemBytes() + ecs.MemBytes() + entryOverhead,
	}
}

// NewPHCEntry wraps a historical multi-k index as a cache entry (AlgoPHC
// keys). phc indexes are always self-owned, so there is no arena caveat.
func NewPHCEntry(ix *phc.Index, buildTime time.Duration) *Entry {
	return &Entry{
		Phc:      ix,
		CoreTime: buildTime,
		Bytes:    ix.MemBytes() + entryOverhead,
	}
}

// Outcome reports how a GetOrBuild call was served.
type Outcome int

const (
	// Hit: the entry was already resident.
	Hit Outcome = iota
	// Built: this call ran the build and inserted the entry.
	Built
	// Shared: another goroutine was already building the same key; this
	// call waited and shares its result (singleflight deduplication).
	Shared
)

// Stats are the cache's monotone counters plus its current occupancy.
type Stats struct {
	Hits               int64 // lookups served from a resident entry
	Misses             int64 // lookups that ran a build
	SingleflightShared int64 // lookups that waited on another goroutine's build
	Evictions          int64 // entries dropped by the LRU byte bound
	Retired            int64 // entries dropped because their epoch was retired
	Oversize           int64 // built entries refused admission (larger than the budget)
	Cuts               int64 // lookups answered from a full-range entry (see CountCut)

	Entries int   // resident entries
	Bytes   int64 // resident byte estimate
}

// flight is one in-progress build other goroutines may wait on.
type flight struct {
	done chan struct{}
	ent  *Entry
	err  error
}

// Cache is a byte-bounded, epoch-keyed LRU of compiled CoreTime results.
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64                 // tkc:guardedby mu
	ll      *list.List            // tkc:guardedby mu
	m       map[Key]*list.Element // tkc:guardedby mu
	flights map[Key]*flight       // tkc:guardedby mu
	// oversize remembers keys whose built tables exceeded the whole
	// budget, so repeat queries on such a key take their zero-alloc
	// uncached path instead of re-running a fully-allocating build whose
	// result can never be admitted. Bounded: retired with the floor, and
	// reset wholesale beyond a hard cap.
	oversize map[Key]struct{} // tkc:guardedby mu
	// floor is the highest RetireBelow seq seen (keeps retirement monotone).
	floor int64 // tkc:guardedby mu
	stats Stats // tkc:guardedby mu
	// charges holds the rent window builds have paid towards the full
	// range of their (epoch, k); see Lookup. A fixed array, so a charge
	// never allocates.
	charges [chargeSlots]charge // tkc:guardedby mu
}

// charge is the rent that the window builds at one (epoch, k) have paid
// towards its full-range entry: their summed cost proxies, and the
// CoreTime they took, which converts the proxy to wall time. k == 0 marks
// a free slot.
type charge struct {
	seq  int64
	k    int
	paid int64
	took time.Duration
}

// chargeSlots bounds the (epoch, k) pairs that keep charges at once. A
// charge to a new pair when all are taken replaces the pair that has paid
// least.
const chargeSlots = 8

// buyShare is the price of a full-range build in the units window builds
// charge, as a multiple of the full range's own cost proxy. The proxy,
// edges · √(start times), weighs a long range too lightly, because an
// edge's skyline grows with the range. On the paper-scale CM replica at
// k = 9 (2-CPU Xeon, GOMAXPROCS 2) the full range's build took 429 ms,
// 54.6 times the 7.85 ms median of four 10%-of-tmax window builds, whose
// proxies were 1/31.1 of the full range's: 54.6/31.1 = 1.75.
const buyShare = 1.75

// buildCost is the cost proxy of a CoreTime build of a window with edges
// edges and starts start times. Build time grew as about edges ·
// starts^0.5 on that replica: from 2% to 50% of tmax, window builds took
// 0.017-0.037 µs per unit.
func buildCost(edges, starts int) int64 {
	return int64(float64(edges) * math.Sqrt(float64(starts)))
}

type node struct {
	key Key
	ent *Entry
}

// New creates a cache bounded to maxBytes of estimated entry cost.
// maxBytes <= 0 yields a cache that stores nothing (every lookup builds),
// which callers normally express by not using a cache at all.
func New(maxBytes int64) *Cache {
	return &Cache{
		max:      maxBytes,
		ll:       list.New(),
		m:        make(map[Key]*list.Element),
		flights:  make(map[Key]*flight),
		oversize: make(map[Key]struct{}),
	}
}

// MaxBytes returns the configured byte budget.
func (c *Cache) MaxBytes() int64 { return c.max } // immutable after New

// Admits reports whether an entry whose tables estimate to tableBytes
// (before the fixed per-entry overhead) could be admitted at all. Callers
// that Add entries they built for their own use (the watcher's refresh)
// check this first, so tables too large to admit count no Oversize.
func (c *Cache) Admits(tableBytes int64) bool { return tableBytes+entryOverhead <= c.max }

// Probe returns the resident entry for key, if any, promoting it to most
// recently used and counting a hit. It never builds, never waits on an
// in-progress build, and an absent key counts nothing — Stats.Misses
// keeps meaning "a build ran", which matters for callers whose fallback
// is not a build (the watcher's incremental patch path).
func (c *Cache) Probe(key Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*node).ent, true
}

// Source says where Lookup found a query's tables.
type Source int

const (
	// Missed: neither the key's entry nor its full range's is resident.
	// The caller builds the window through GetOrBuild, which charges the
	// build to the key's (epoch, k).
	Missed Source = iota
	// Exact: the key's own entry is resident.
	Exact
	// Cut: the full range's entry is resident; the caller cuts the
	// window's tables from it.
	Cut
	// Buy: the window builds at the key's (epoch, k) have paid the full
	// range's predicted cost. The caller builds the full range through
	// GetOrBuild and cuts the window's tables from it.
	Buy
)

// Lookup finds the tables of key, a window inside the range of full: the
// same epoch, k and algorithm, over the whole range, which holds
// fullEdges edges. It returns key's resident entry (Exact), counting a hit
// as GetOrBuild does; else full's resident entry (Cut), counting a cut;
// else no entry. With no entry it returns Buy, and the predicted wall time
// of the full range's build, when the charges at (key.Seq, key.K) have
// reached buyShare times the full range's cost proxy, and no build of full
// is in flight or known to exceed the budget; otherwise Missed. So a
// query that finds the buy in flight builds its own window instead of
// waiting. Lookup never builds or waits, and allocates nothing.
func (c *Cache) Lookup(key, full Key, fullEdges int) (*Entry, Source, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*node).ent, Exact, 0
	}
	if key == full {
		return nil, Missed, 0
	}
	if el, ok := c.m[full]; ok {
		c.ll.MoveToFront(el)
		c.stats.Cuts++
		return el.Value.(*node).ent, Cut, 0
	}
	ch := c.chargeOf(key, false)
	price := int64(buyShare * float64(buildCost(fullEdges, full.W.Len())))
	_, buying := c.flights[full]
	_, oversize := c.oversize[full]
	if ch == nil || ch.paid < price || buying || oversize {
		return nil, Missed, 0
	}
	return nil, Buy, time.Duration(float64(ch.took) * float64(price) / float64(ch.paid))
}

// CountCut counts a cut that Lookup did not serve: a query that cut the
// full-range entry it built or shared through GetOrBuild after Lookup
// returned Buy.
func (c *Cache) CountCut() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Cuts++
}

// chargeOf returns the charge slot of key's (epoch, k). With take, a pair
// that has none takes a free slot, or else the slot that has paid least;
// without, it returns nil.
//
// tkc:guardheld mu: callers hold c.mu
func (c *Cache) chargeOf(key Key, take bool) *charge {
	var free, least *charge
	for i := range c.charges {
		ch := &c.charges[i]
		switch {
		case ch.k == key.K && ch.seq == key.Seq:
			return ch
		case ch.k == 0:
			free = ch
		case least == nil || ch.paid < least.paid:
			least = ch
		}
	}
	if !take {
		return nil
	}
	if free == nil {
		free = least
	}
	*free = charge{seq: key.Seq, k: key.K}
	return free
}

// Uncacheable reports that a previous build for key produced tables
// larger than the whole budget: the entry can never be admitted, so the
// caller should take its uncached (pooled-scratch) path instead of
// re-building retained tables that will only be dropped.
func (c *Cache) Uncacheable(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.oversize[key]
	return ok
}

// Add inserts an entry built outside the cache (no singleflight), evicting
// from the LRU tail to honour the byte budget. Entries larger than the
// whole budget are not admitted.
func (c *Cache) Add(key Key, ent *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, ent)
}

// GetOrBuild returns the entry for key, running build on a miss and
// inserting its result. Concurrent calls for the same key are deduplicated:
// one runs build, the rest wait and share. A waiter stops waiting when its
// own ctx cancels; if the builder itself failed with a cancellation, a
// still-live waiter retries (and may become the new builder) rather than
// inheriting someone else's cancellation.
func (c *Cache) GetOrBuild(ctx context.Context, key Key, build func() (*Entry, error)) (*Entry, Outcome, error) {
	sharedCounted := false
	for {
		c.mu.Lock()
		if el, ok := c.m[key]; ok {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			ent := el.Value.(*node).ent
			c.mu.Unlock()
			return ent, Hit, nil
		}
		if f, ok := c.flights[key]; ok {
			if !sharedCounted {
				// One logical lookup shares at most once, no matter how
				// many cancelled builders it retries past.
				c.stats.SingleflightShared++
				sharedCounted = true
			}
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, Shared, ctx.Err()
			}
			if f.err == nil {
				return f.ent, Shared, nil
			}
			if err := ctx.Err(); err != nil {
				return nil, Shared, err
			}
			if isCancel(f.err) {
				continue // the builder was cancelled, not us: try again
			}
			return nil, Shared, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.stats.Misses++
		c.mu.Unlock()

		// A panicking build must not wedge the key: unregister the flight
		// and wake the waiters with an error before the panic continues
		// (they see a non-cancel error and propagate it).
		finished := false
		defer func() {
			if !finished {
				c.mu.Lock()
				delete(c.flights, key)
				c.mu.Unlock()
				f.err = errBuildPanicked
				close(f.done)
			}
		}()
		f.ent, f.err = build()
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insert(key, f.ent)
			if ecs := f.ent.Ecs; ecs != nil {
				lo, hi := ecs.EdgeRange()
				ch := c.chargeOf(key, true)
				ch.paid += buildCost(int(hi-lo), key.W.Len())
				ch.took += f.ent.CoreTime
			}
		}
		c.mu.Unlock()
		finished = true
		close(f.done)
		return f.ent, Built, f.err
	}
}

// errBuildPanicked is what waiters of a flight observe when its builder
// panicked; the panic itself propagates on the builder's goroutine.
var errBuildPanicked = errors.New("qcache: build panicked")

// isCancel reports errors that mean "the builder gave up", not "the build
// is impossible" — a waiter with a live context should retry after them.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, vct.ErrStopped)
}

// RetireBelow drops every resident entry whose epoch sequence number is
// below seq. The serving layer calls it when it publishes a newer epoch
// (no Latest call can return a retired one), so a retired epoch's entries
// stop occupying budget without waiting for LRU pressure. Retirement is advisory, not a ban: a
// long-held snapshot that queries a retired epoch rebuilds on miss and
// re-inserts — an insert below the floor implies an active querier, and
// the next retirement simply drops it again. The floor is monotone: calls
// with a lower seq are no-ops.
func (c *Cache) RetireBelow(seq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq <= c.floor {
		return
	}
	c.floor = seq
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		n := el.Value.(*node)
		if n.key.Seq < seq {
			c.remove(el)
			c.stats.Retired++
		}
		el = next
	}
	for k := range c.oversize {
		if k.Seq < seq {
			delete(c.oversize, k)
		}
	}
	for i := range c.charges {
		if c.charges[i].seq < seq {
			c.charges[i] = charge{}
		}
	}
}

// Dump calls fn for every resident entry in most-recently-used order,
// without changing recency or counting hits. The snapshot layer uses it to
// spill the warm working set to disk; fn must not call back into the cache
// (the cache lock is held) and must treat the entry as immutable (it is
// shared with concurrent readers). fn returning false stops the walk.
func (c *Cache) Dump(fn func(Key, *Entry) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		n := el.Value.(*node)
		if !fn(n.key, n.ent) {
			return
		}
	}
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.ll.Len()
	st.Bytes = c.bytes
	return st
}

// insert adds (or replaces) an entry and evicts from the LRU tail until the
// budget holds.
//
// tkc:guardheld mu: callers hold c.mu
func (c *Cache) insert(key Key, ent *Entry) {
	if ent.Bytes > c.max {
		c.stats.Oversize++
		if len(c.oversize) >= 4096 {
			clear(c.oversize) // hard cap against unbounded key churn
		}
		c.oversize[key] = struct{}{}
		return
	}
	if el, ok := c.m[key]; ok {
		// A racing build of the same key landed first; keep the resident
		// entry (both are byte-identical by construction).
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&node{key: key, ent: ent})
	c.m[key] = el
	c.bytes += ent.Bytes
	for c.bytes > c.max {
		tail := c.ll.Back()
		if tail == nil || tail == el {
			break
		}
		c.remove(tail)
		c.stats.Evictions++
	}
}

// remove unlinks an element.
//
// tkc:guardheld mu: callers hold c.mu
func (c *Cache) remove(el *list.Element) {
	n := el.Value.(*node)
	c.ll.Remove(el)
	delete(c.m, n.key)
	c.bytes -= n.ent.Bytes
}
