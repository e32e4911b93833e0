package temporalkcore_test

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	tkc "temporalkcore"
)

func TestHistoricalIndexPaper(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.HistoricalIndex(ctx, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if h.KMax() != 2 {
		t.Fatalf("KMax = %d, want 2", h.KMax())
	}
	if h.Size() <= 0 {
		t.Error("empty index")
	}

	// The 2-core of [1,4] (Figure 2's larger core): {1,2,3,4,9}.
	members, err := histVertices(h, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	want := []int64{1, 2, 3, 4, 9}
	if len(members) != len(want) {
		t.Fatalf("members = %v, want %v", members, want)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("members = %v, want %v", members, want)
		}
	}

	c, _, err := h.Query(2).Window(1, 4).First(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Edges) != 6 {
		t.Errorf("core edges = %d, want 6", len(c.Edges))
	}

	in, err := h.Contains(1, 2, 1, 4)
	if err != nil || !in {
		t.Errorf("Contains(1) = %v,%v, want true", in, err)
	}
	in, err = h.Contains(5, 2, 1, 4)
	if err != nil || in {
		t.Errorf("Contains(5) = %v,%v, want false", in, err)
	}
	if _, err := h.Contains(99, 2, 1, 4); err == nil {
		t.Error("unknown vertex accepted")
	}

	cn, err := h.CoreNumber(1, 1, 4)
	if err != nil || cn != 2 {
		t.Errorf("CoreNumber(1, [1,4]) = %d,%v, want 2", cn, err)
	}
	cn, err = h.CoreNumber(5, 1, 4)
	if err != nil || cn != 0 {
		t.Errorf("CoreNumber(5, [1,4]) = %d,%v, want 0", cn, err)
	}
	// v5 joins the 2-core only in windows reaching t=7.
	cn, err = h.CoreNumber(5, 6, 7)
	if err != nil || cn != 2 {
		t.Errorf("CoreNumber(5, [6,7]) = %d,%v, want 2", cn, err)
	}
}

func TestHistoricalIndexSaveLoad(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.HistoricalIndex(ctx, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := g.LoadHistoricalIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := histVertices(h, 2, 1, 4)
	b, _ := histVertices(back, 2, 1, 4)
	if len(a) != len(b) {
		t.Fatalf("loaded index answers differently: %v vs %v", a, b)
	}
	if _, err := g.LoadHistoricalIndex(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk index accepted")
	}
}

func TestHistoricalIndexErrors(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.HistoricalIndex(ctx, 50, 60); err != tkc.ErrNoTimestamps {
		t.Errorf("empty range: %v", err)
	}
	h, err := g.HistoricalIndex(ctx, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Queries outside the indexed range must fail loudly, not silently.
	if _, err := histVertices(h, 2, 1, 7); err == nil {
		t.Error("query outside indexed range accepted")
	}
}

// timeBatch generates a time-ordered append batch whose first timestamp is
// >= from, over the vertex universe [0, n).
func timeBatch(r *rand.Rand, n int, m int, from int64) []tkc.Edge {
	batch := make([]tkc.Edge, 0, m)
	tme := from
	for len(batch) < m {
		u, v := int64(r.Intn(n)), int64(r.Intn(n))
		if u == v {
			continue
		}
		if r.Intn(3) == 0 {
			tme++
		}
		batch = append(batch, tkc.Edge{U: u, V: v, Time: tme})
	}
	return batch
}

// TestHistoricalIndexCacheHit: a repeat HistoricalIndex call on the same
// graph state and range is a warm cache hit, and the hit answers exactly
// like the build. With the cache disabled the path still serves correctly.
func TestHistoricalIndexCacheHit(t *testing.T) {
	g := reqGraph(t, 31, 40, 400)
	lo, hi := g.TimeSpan()
	ctx := context.Background()

	base := g.CacheStats()
	h1, err := g.HistoricalIndex(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	afterBuild := g.CacheStats()
	if afterBuild.Misses != base.Misses+1 {
		t.Errorf("first build: misses %d -> %d, want one new miss", base.Misses, afterBuild.Misses)
	}
	h2, err := g.HistoricalIndex(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	afterHit := g.CacheStats()
	if afterHit.Hits != afterBuild.Hits+1 {
		t.Errorf("repeat build: hits %d -> %d, want one new hit", afterBuild.Hits, afterHit.Hits)
	}
	for k := 1; k <= h1.KMax(); k++ {
		a, err := histVertices(h1, k, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		b, err := histVertices(h2, k, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("k=%d: cached index answers differently: %d vs %d members", k, len(a), len(b))
		}
	}

	g.SetCacheOptions(tkc.CacheOptions{Disable: true})
	h3, err := g.HistoricalIndex(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if h3.KMax() != h1.KMax() {
		t.Errorf("uncached path KMax = %d, want %d", h3.KMax(), h1.KMax())
	}
}

// TestHistoricalIndexPatchAfterAppend grows the graph at the time frontier
// and cross-checks the (incrementally patched) index against from-scratch
// snapshot peeling on many windows and k.
func TestHistoricalIndexPatchAfterAppend(t *testing.T) {
	g := reqGraph(t, 32, 30, 300)
	ctx := context.Background()
	lo, hi := g.TimeSpan()
	if _, err := g.HistoricalIndex(ctx, lo, hi); err != nil { // seeds the patch oracle
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(5))
	for round := 0; round < 3; round++ {
		_, cur := g.TimeSpan()
		if _, err := g.Append(timeBatch(r, 30, 120, cur)...); err != nil {
			t.Fatal(err)
		}
		lo, hi = g.TimeSpan()
		h, err := g.HistoricalIndex(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 3; k++ {
			for trial := 0; trial < 6; trial++ {
				s := lo + int64(r.Intn(int(hi-lo+1)))
				e := s + int64(r.Intn(int(hi-s+1)))
				got, err := histVertices(h, k, s, e)
				if err != nil {
					t.Fatal(err)
				}
				want, ok, err := g.Query(k).Window(s, e).Snapshot(1).Project(tkc.ProjectVertices).First(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !ok && len(got) != 0 {
					t.Fatalf("round %d k=%d [%d,%d]: index says %d members, peeler says empty", round, k, s, e, len(got))
				}
				if ok {
					if len(got) != len(want.Vertices) {
						t.Fatalf("round %d k=%d [%d,%d]: index %d members, peeler %d", round, k, s, e, len(got), len(want.Vertices))
					}
					for i := range got {
						if got[i] != want.Vertices[i] {
							t.Fatalf("round %d k=%d [%d,%d]: member lists differ at %d", round, k, s, e, i)
						}
					}
				}
			}
		}
	}
}

// TestHistoricalIndexEpochPinned: an index keeps answering for the epoch it
// was built from while the live graph grows past it — appended edges never
// leak into old answers — and a fresh index sees the new state.
func TestHistoricalIndexEpochPinned(t *testing.T) {
	g, err := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 1},
		{U: 2, V: 3, Time: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := g.HistoricalIndex(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := histVertices(h, 2, 1, 2); len(got) != 0 {
		t.Fatalf("path graph has a 2-core: %v", got)
	}

	// Close the triangle after the index is pinned.
	if _, err := g.Append(tkc.Edge{U: 1, V: 3, Time: 3}); err != nil {
		t.Fatal(err)
	}
	if got, _ := histVertices(h, 2, 1, 2); len(got) != 0 {
		t.Fatalf("append leaked into the pinned index: %v", got)
	}
	if h.Seq() != 0 {
		t.Errorf("pinned index seq = %d, want 0", h.Seq())
	}

	h2, err := g.HistoricalIndex(ctx, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Seq() != 1 {
		t.Errorf("fresh index seq = %d, want 1", h2.Seq())
	}
	got, err := histVertices(h2, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("triangle 2-core = %v, want 3 members", got)
	}
}

// TestHistoricalIndexConcurrentAppend hammers pinned indexes and
// Latest-epoch index builds from reader goroutines while the writer
// appends and publishes — the -race proof of the epoch-pinned memory
// model.
func TestHistoricalIndexConcurrentAppend(t *testing.T) {
	g := reqGraph(t, 33, 40, 500)
	ctx := context.Background()
	lo, hi := g.TimeSpan()
	h, err := g.HistoricalIndex(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	g.Publish()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := histVertices(h, 2, lo, hi); err != nil {
					t.Errorf("pinned index query: %v", err)
					return
				}
				s := g.Latest()
				sLo, sHi := s.TimeSpan()
				hh, err := s.HistoricalIndex(ctx, sLo, sHi)
				if err != nil {
					t.Errorf("latest-epoch index: %v", err)
					return
				}
				if _, err := histVertices(hh, 2, sLo, sHi); err != nil {
					t.Errorf("latest-epoch query: %v", err)
					return
				}
			}
		}()
	}

	r := rand.New(rand.NewSource(11))
	for round := 0; round < 25; round++ {
		_, cur := g.TimeSpan()
		if _, err := g.Append(timeBatch(r, 40, 40, cur)...); err != nil {
			t.Fatal(err)
		}
		g.Publish()
		wLo, wHi := g.TimeSpan()
		if _, err := g.HistoricalIndex(ctx, wLo, wHi); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLoadHistoricalIndexRejectsMismatch: the fingerprint embedded by Save
// rejects loads against a different graph and against a later epoch of the
// same graph.
func TestLoadHistoricalIndexRejectsMismatch(t *testing.T) {
	// g2 differs from g1 in its vertex universe: the fingerprint records
	// counts and the mutation sequence (not a content hash), so the
	// guaranteed-detected mismatch is a differently-sized graph.
	g1 := reqGraph(t, 34, 20, 150)
	g2 := reqGraph(t, 35, 26, 150)
	lo, hi := g1.TimeSpan()
	h, err := g1.HistoricalIndex(context.Background(), lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	if _, err := g2.LoadHistoricalIndex(bytes.NewReader(saved)); err == nil {
		t.Error("index loaded against a different graph")
	}
	if _, err := g1.Append(tkc.Edge{U: 0, V: 1, Time: hi + 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := g1.LoadHistoricalIndex(bytes.NewReader(saved)); err == nil {
		t.Error("index loaded against a later epoch of its graph")
	}
}

// histVertices returns the sorted vertex labels of the k-core of the
// snapshot over [s, e] from a historical index, nil when it is empty.
func histVertices(h *tkc.HistoricalIndex, k int, s, e int64) ([]int64, error) {
	c, _, err := h.Query(k).Window(s, e).Project(tkc.ProjectVertices).First(context.Background())
	return c.Vertices, err
}
