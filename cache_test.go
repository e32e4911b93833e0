package temporalkcore_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	tkc "temporalkcore"
	"temporalkcore/internal/gen"
	"temporalkcore/internal/tgraph"
)

// seededEdges synthesises the CM replica at the given scale and seed; see
// cmEdges.
func seededEdges(t testing.TB, edges int, seed int64) []tkc.Edge {
	t.Helper()
	rep, err := gen.ReplicaByCode("CM")
	if err != nil {
		t.Fatal(err)
	}
	g, err := rep.Generate(edges, seed)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]tkc.Edge, g.NumEdges())
	for i := range all {
		te := g.Edge(tgraph.EID(i))
		all[i] = tkc.Edge{U: g.Label(te.U), V: g.Label(te.V), Time: g.RawTime(te.T)}
	}
	return all
}

// resultDigest summarises a result stream without materialising it: the
// number of cores, |R|, and an FNV-64a hash over every core's tightest
// time interval and edges in emission order. Equal digests mean the same
// cores with the same edges in the same order.
type resultDigest struct {
	Cores, Edges int64
	Hash         uint64
}

// digestOf executes r and folds its results into a resultDigest one core
// at a time, so a full-span query whose |R| runs to tens of millions of
// edges is compared in constant memory.
func digestOf(ctx context.Context, r *tkc.Request) (resultDigest, error) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var d resultDigest
	for c, err := range r.Seq(ctx) {
		if err != nil {
			return d, err
		}
		d.Cores++
		d.Edges += int64(len(c.Edges))
		put(c.Start)
		put(c.End)
		for _, e := range c.Edges {
			put(e.U)
			put(e.V)
			put(e.Time)
		}
	}
	d.Hash = h.Sum64()
	return d, nil
}

// TestCachedVsUncachedDifferential is the serving cache's correctness
// suite: across 50 seeded graphs, reader goroutines query the latest
// published epoch through the cache while the writer churns appends in
// (publishing per batch through a Watcher, so epochs — and cache retirement
// — happen under the readers). Every observed (epoch seq, fingerprint)
// pair must be byte-identical to the same queries on a quiesced,
// cache-disabled graph rebuilt from exactly that epoch's edge prefix. Run
// under -race this also exercises the cache's concurrent paths.
func TestCachedVsUncachedDifferential(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	const k = 3
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel() // each seed is self-contained; multi-core CI overlaps them
			all := seededEdges(t, 300+seed*7, int64(seed))
			cut := len(all) * 9 / 10
			g, err := tkc.NewGraph(all[:cut])
			if err != nil {
				t.Fatal(err)
			}
			w, err := g.Watch(k, 0)
			if err != nil {
				t.Fatal(err)
			}

			// prefix maps every published epoch seq to its exact edge
			// count; written by the writer goroutine only, read after Wait.
			prefix := map[int64]int{g.Latest().Seq(): g.NumEdges()}

			type obs struct {
				seq int64
				fp  string
			}
			var mu sync.Mutex
			var seen []obs
			stop := make(chan struct{})

			var readers sync.WaitGroup
			for ri := 0; ri < 2; ri++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						s := g.Latest()
						fp, err := coreFingerprint(s.Graph, k)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						seen = append(seen, obs{seq: s.Seq(), fp: fp})
						mu.Unlock()
					}
				}()
			}

			// Churn: append the remaining 10% in 4 batches through the
			// watcher (each publishes an epoch and refreshes the tables,
			// inserting them into the cache). After each batch the writer
			// itself observes the published epoch once, so every seed
			// records observations even when the readers lose the race to
			// the short churn.
			step := (len(all) - cut + 3) / 4
			for i := cut; i < len(all); i += step {
				j := min(i+step, len(all))
				if _, err := w.Append(all[i:j]...); err != nil {
					t.Fatal(err)
				}
				prefix[g.Latest().Seq()] = g.NumEdges()
				s := g.Latest()
				fp, err := coreFingerprint(s.Graph, k)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				seen = append(seen, obs{seq: s.Seq(), fp: fp})
				mu.Unlock()
			}
			close(stop)
			readers.Wait()

			// Quiesced replay: each observed epoch must match a fresh,
			// cache-disabled rebuild of its exact prefix.
			replayed := map[int64]string{}
			for _, o := range seen {
				want, ok := replayed[o.seq]
				if !ok {
					n, known := prefix[o.seq]
					if !known {
						t.Fatalf("observed unknown epoch seq %d", o.seq)
					}
					// The canonical edge list has no duplicates, so the
					// prefix length equals the appended edge count.
					g2, err := tkc.NewGraph(all[:n])
					if err != nil {
						t.Fatal(err)
					}
					g2.SetCacheOptions(tkc.CacheOptions{Disable: true})
					if want, err = coreFingerprint(g2, k); err != nil {
						t.Fatal(err)
					}
					replayed[o.seq] = want
				}
				if o.fp != want {
					t.Fatalf("seq %d: cached result diverged\n cached: %s\nreplay: %s", o.seq, o.fp, want)
				}
			}
			if len(seen) == 0 {
				t.Fatal("readers observed nothing")
			}
		})
	}
}

// TestCacheHitRepeatQuery pins the hit semantics of the one-shot path:
// identical repeat queries skip the CoreTime phase, report CacheHit, and
// return byte-identical results.
func TestCacheHitRepeatQuery(t *testing.T) {
	ctx := context.Background()
	all := seededEdges(t, 800, 3)
	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.TimeSpan()

	var first, repeat tkc.QueryStats
	d1, err := digestOf(ctx, g.Query(3).Window(lo, hi).Stats(&first))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := digestOf(ctx, g.Query(3).Window(lo, hi).Stats(&repeat))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Errorf("first query reported CacheHit")
	}
	if !repeat.CacheHit || repeat.CoreTime != 0 {
		t.Errorf("repeat query: CacheHit=%v CoreTime=%v, want hit with zero CoreTime", repeat.CacheHit, repeat.CoreTime)
	}
	if repeat.VCTSize != first.VCTSize || repeat.ECSSize != first.ECSSize {
		t.Errorf("index sizes diverged: %+v vs %+v", repeat, first)
	}
	if d1 != d2 {
		t.Errorf("cached repeat returned different cores: %+v vs %+v", d2, d1)
	}

	cs := g.CacheStats()
	if cs.Hits < 1 || cs.Misses < 1 || cs.Entries < 1 {
		t.Errorf("cache stats did not record the flow: %+v", cs)
	}

	// A different epoch mints a different key: append + repeat = miss.
	if _, err := g.Append(tkc.Edge{U: 1, V: 2, Time: hi + 1}); err != nil {
		t.Fatal(err)
	}
	var after tkc.QueryStats
	if _, err := digestOf(ctx, g.Query(3).Window(lo, hi).Stats(&after)); err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Error("query on the appended graph hit a stale-epoch entry")
	}
}

// TestPreparedUsesCache pins the Prepare integration: preparing the same
// (k, window) twice builds once, and a prior one-shot query's entry is
// adopted by Prepare (and vice versa).
func TestPreparedUsesCache(t *testing.T) {
	ctx := context.Background()
	all := seededEdges(t, 800, 4)
	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.TimeSpan()

	p1, err := g.Prepare(3, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if p1.PrepareTime() <= 0 {
		t.Error("first Prepare reported zero PrepareTime (it ran the build)")
	}
	p2, err := g.Prepare(3, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if p2.PrepareTime() != 0 {
		t.Errorf("second Prepare reported PrepareTime %v, want 0 (cache adopt)", p2.PrepareTime())
	}
	d1, err := digestOf(ctx, p1.Query())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := digestOf(ctx, p2.Query())
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("cache-adopted prepared query returned different cores: %+v vs %+v", d2, d1)
	}

	// A one-shot query on the prepared (k, window) is a hit too.
	var qs tkc.QueryStats
	if _, err := g.Query(3).Window(lo, hi).Stats(&qs).Count(ctx); err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Error("one-shot query missed the entry Prepare inserted")
	}
}

// TestRunBatchSharesHits pins the batch integration: N identical requests
// in one batch resolve their CoreTime tables with a single build, the
// remaining items reporting shared hits, with identical results. Half the
// items count and half materialise an early-stopped prefix: seven
// materialised copies of this full-span result would run to gigabytes.
// The full content of the built entry is then checked by streaming it.
func TestRunBatchSharesHits(t *testing.T) {
	ctx := context.Background()
	all := seededEdges(t, 800, 5)
	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.TimeSpan()

	const dup, prefix = 6, 50
	var reqs []*tkc.Request
	for i := 0; i < dup; i++ {
		r := g.Query(3).Window(lo, hi)
		if i%2 == 0 {
			r.Project(tkc.ProjectCount)
		} else {
			r.EarlyStop(prefix)
		}
		reqs = append(reqs, r)
	}
	reqs = append(reqs, g.Query(2).Window(lo, hi).Project(tkc.ProjectCount)) // a distinct key rides along

	res := g.RunBatch(ctx, reqs)
	built, shared := 0, 0
	for i := 0; i < dup; i++ {
		r := res[i]
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Stats.CacheHit {
			shared++
		} else {
			built++
		}
		// Items of the same shape return the same results: equal counts
		// for the counting items, equal cores and edges for the prefixes.
		ref := res[i%2]
		if r.Stats.Cores != ref.Stats.Cores || r.Stats.Edges != ref.Stats.Edges || !reflect.DeepEqual(r.Cores, ref.Cores) {
			t.Fatalf("item %d returned different cores: %d cores / %d edges vs %d / %d",
				i, r.Stats.Cores, r.Stats.Edges, ref.Stats.Cores, ref.Stats.Edges)
		}
	}
	if built != 1 || shared != dup-1 {
		t.Errorf("identical group: %d built / %d shared, want 1 / %d", built, shared, dup-1)
	}
	if res[dup].Err != nil {
		t.Fatalf("distinct item: %v", res[dup].Err)
	}
	cs := g.CacheStats()
	if cs.Misses != 2 {
		t.Errorf("batch ran %d builds, want 2 (one per distinct key); stats %+v", cs.Misses, cs)
	}

	// Streaming the entry the batch built yields the counting items'
	// results, and the same content as a cache-disabled rebuild, whose
	// prefix the materialising items returned.
	var qs tkc.QueryStats
	got, err := digestOf(ctx, g.Query(3).Window(lo, hi).Stats(&qs))
	if err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit || got.Cores != res[0].Stats.Cores || got.Edges != res[0].Stats.Edges {
		t.Errorf("streamed entry: hit=%v %d cores / %d edges, batch had %d / %d",
			qs.CacheHit, got.Cores, got.Edges, res[0].Stats.Cores, res[0].Stats.Edges)
	}
	cold, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	cold.SetCacheOptions(tkc.CacheOptions{Disable: true})
	want, err := digestOf(ctx, cold.Query(3).Window(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("batch-built entry streams %+v, uncached rebuild %+v", got, want)
	}
	wantPrefix, err := cold.Query(3).Window(lo, hi).EarlyStop(prefix).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPrefix) != prefix || !reflect.DeepEqual(res[1].Cores, wantPrefix) {
		t.Errorf("batch prefix of %d cores differs from the uncached rebuild's %d", len(res[1].Cores), len(wantPrefix))
	}

	// The whole batch repeated is all hits.
	res2 := g.RunBatch(ctx, []*tkc.Request{
		g.Query(3).Window(lo, hi).EarlyStop(prefix),
		g.Query(2).Window(lo, hi).Project(tkc.ProjectCount),
	})
	for i, r := range res2 {
		if r.Err != nil || !r.Stats.CacheHit {
			t.Errorf("repeat item %d: err=%v hit=%v", i, r.Err, r.Stats.CacheHit)
		}
	}
}

// TestWatcherAdoptsCacheEntry pins the watcher integration: a reader-side
// stale repair whose exact (epoch seq, k, window) tables are already
// cached adopts them instead of patching.
func TestWatcherAdoptsCacheEntry(t *testing.T) {
	ctx := context.Background()
	all := seededEdges(t, 900, 6)
	cut := len(all) * 9 / 10
	g, err := tkc.NewGraph(all[:cut])
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	w, err := g.Watch(k, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Appends that bypass the watcher leave it stale; a one-shot query on
	// the newly published epoch's full window seeds the cache with exactly
	// the tables the repair needs.
	if _, err := g.Append(all[cut:]...); err != nil {
		t.Fatal(err)
	}
	s := g.Publish()
	lo, hi := s.TimeSpan()
	var qs tkc.QueryStats
	if _, err := s.Query(k).Window(lo, hi).Stats(&qs).Count(ctx); err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("seeding query was unexpectedly a hit")
	}

	want, err := w.Query().Count(ctx) // stale: repairs by adopting the entry
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.CacheAdopts != 1 {
		t.Errorf("repair did not adopt the cached tables: %+v", st)
	}
	if want.Cores != qs.Cores || want.Edges != qs.Edges {
		t.Errorf("adopted watcher answer %+v differs from the seeding query %+v", want, qs)
	}
}

// TestSnapshotPinnedCacheHitAndRetire pins epoch-keyed invalidation at the
// public layer: a snapshot keeps hitting its own epoch's entries while the
// live graph moves on, until publishing retires epochs older than the
// previous latest.
func TestSnapshotPinnedCacheHitAndRetire(t *testing.T) {
	ctx := context.Background()
	all := seededEdges(t, 800, 8)
	cut := len(all) * 8 / 10
	g, err := tkc.NewGraph(all[:cut])
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	s1 := g.Publish()
	lo, hi := s1.TimeSpan()

	var qs tkc.QueryStats
	if _, err := s1.Query(k).Window(lo, hi).Stats(&qs).Count(ctx); err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit {
		t.Fatal("first snapshot query was a hit on an empty cache")
	}

	// The live graph moves on; the pinned snapshot still hits its entry
	// (publish retires only below the PREVIOUS latest, which s1 still is).
	mid := cut + (len(all)-cut)/2
	if _, err := g.Append(all[cut:mid]...); err != nil {
		t.Fatal(err)
	}
	g.Publish()
	if _, err := s1.Query(k).Window(lo, hi).Stats(&qs).Count(ctx); err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit {
		t.Error("pinned snapshot missed its own epoch's entry after one publish")
	}

	// A second publish retires s1's epoch: the entry is dropped, but the
	// snapshot stays correct — it rebuilds on miss.
	if _, err := g.Append(all[mid:]...); err != nil {
		t.Fatal(err)
	}
	g.Publish()
	if cs := g.CacheStats(); cs.Retired == 0 {
		t.Errorf("second publish retired nothing: %+v", cs)
	}
	before, err := s1.Query(k).Window(lo, hi).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.CacheHit {
		t.Error("query on a retired epoch reported a hit")
	}

	// Differential anchor: the retired-epoch rebuild equals a quiesced
	// cache-disabled rebuild of the same prefix.
	g2, err := tkc.NewGraph(all[:cut])
	if err != nil {
		t.Fatal(err)
	}
	g2.SetCacheOptions(tkc.CacheOptions{Disable: true})
	want, err := g2.Query(k).Window(lo, hi).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Cores != want.Cores || before.Edges != want.Edges {
		t.Errorf("retired-epoch answer %+v != quiesced %+v", before, want)
	}
}

// TestCacheEvictionKeepsServing pins the LRU bound at the public layer: a
// tiny budget forces evictions across many distinct windows, and every
// query — evicted, resident or never admitted — still answers exactly
// like the cache-disabled path.
func TestCacheEvictionKeepsServing(t *testing.T) {
	ctx := context.Background()
	all := seededEdges(t, 900, 9)
	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetCacheOptions(tkc.CacheOptions{Disable: true})

	lo, hi := g.TimeSpan()
	span := hi - lo

	// Size the budget off a real entry: just under the full window's, so
	// the full range is never admitted and no window is cut from it
	// (cut_test.go covers cuts). The sweep's dozen distinct windows, each
	// at least half the full window, must cycle through eviction.
	ctxBg := context.Background()
	if _, err := g.Query(2).Window(lo, hi).Count(ctxBg); err != nil {
		t.Fatal(err)
	}
	budget := g.CacheStats().Bytes - 1
	if budget <= 0 {
		t.Fatal("sizing query cached nothing")
	}
	g.SetCacheOptions(tkc.CacheOptions{MaxBytes: budget})
	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			ws := lo + span*int64(i)/24
			got, err := g.Query(2).Window(ws, hi).Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(2).Window(ws, hi).Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cores != want.Cores || got.Edges != want.Edges {
				t.Fatalf("window %d: cached %+v != uncached %+v", i, got, want)
			}
		}
	}
	cs := g.CacheStats()
	if cs.Evictions == 0 {
		t.Errorf("12 windows under a budget below the full window's entry evicted nothing: %+v", cs)
	}
	if cs.Bytes > budget {
		t.Errorf("resident bytes %d exceed the %d budget", cs.Bytes, budget)
	}
}

// TestCacheDisable pins the opt-out: no stats move, no hits appear.
func TestCacheDisable(t *testing.T) {
	ctx := context.Background()
	all := seededEdges(t, 600, 10)
	g, err := tkc.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	g.SetCacheOptions(tkc.CacheOptions{Disable: true})
	lo, hi := g.TimeSpan()
	var qs tkc.QueryStats
	for i := 0; i < 2; i++ {
		if _, err := g.Query(2).Window(lo, hi).Stats(&qs).Count(ctx); err != nil {
			t.Fatal(err)
		}
		if qs.CacheHit || qs.CacheShared {
			t.Fatalf("run %d on a disabled cache reported a hit", i)
		}
		if qs.CoreTime <= 0 {
			t.Fatalf("run %d skipped the CoreTime phase with the cache disabled", i)
		}
	}
	if cs := g.CacheStats(); cs != (tkc.CacheStats{}) {
		t.Errorf("disabled cache reported stats %+v", cs)
	}
}
