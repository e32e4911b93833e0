package temporalkcore_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	tkc "temporalkcore"
)

// randomEdges draws a reproducible random temporal graph through the public
// API, dense enough that small k values have non-trivial cores.
func randomEdges(seed int64, n, m, tmax int) []tkc.Edge {
	r := rand.New(rand.NewSource(seed))
	edges := make([]tkc.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := int64(r.Intn(n))
		v := int64(r.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, tkc.Edge{U: u, V: v, Time: int64(1 + r.Intn(tmax))})
	}
	return edges
}

func batchSpecs(g *tkc.Graph) []tkc.QuerySpec {
	lo, hi := g.TimeSpan()
	span := hi - lo
	var specs []tkc.QuerySpec
	for k := 1; k <= 4; k++ {
		specs = append(specs,
			tkc.QuerySpec{K: k, Start: lo, End: hi},
			tkc.QuerySpec{K: k, Start: lo + span/4, End: lo + 3*span/4},
			tkc.QuerySpec{K: k, Start: lo, End: lo + span/2},
		)
	}
	return specs
}

// batchReqs builds the one-shot request of each spec, for RunBatch.
func batchReqs(g *tkc.Graph, specs []tkc.QuerySpec) []*tkc.Request {
	reqs := make([]*tkc.Request, len(specs))
	for i, sp := range specs {
		reqs[i] = g.Query(sp.K).Window(sp.Start, sp.End).Algorithm(sp.Algorithm)
	}
	return reqs
}

// TestQueryBatchMatchesSequential checks that a parallel batch returns,
// query for query, exactly what the sequential API returns — for every
// parallelism level and in original spec order.
func TestQueryBatchMatchesSequential(t *testing.T) {
	g, err := tkc.NewGraph(randomEdges(7, 30, 400, 60))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := batchSpecs(g)

	want := make([][]tkc.Core, len(specs))
	for i, sp := range specs {
		cores, err := g.Query(sp.K).Window(sp.Start, sp.End).Collect(ctx)
		if err != nil {
			t.Fatalf("sequential spec %d: %v", i, err)
		}
		want[i] = cores
	}

	for _, par := range []int{1, 2, 3, runtime.NumCPU(), -1} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			res := g.RunBatch(ctx, batchReqs(g, specs), tkc.BatchOptions{Parallelism: par})
			if len(res) != len(specs) {
				t.Fatalf("got %d results, want %d", len(res), len(specs))
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("spec %d: %v", i, r.Err)
				}
				if r.Spec != specs[i] {
					t.Errorf("result %d carries spec %+v, want %+v", i, r.Spec, specs[i])
				}
				if !reflect.DeepEqual(r.Cores, want[i]) {
					t.Errorf("spec %d: batch cores differ from sequential (%d vs %d cores)", i, len(r.Cores), len(want[i]))
				}
				if int64(len(r.Cores)) != r.Stats.Cores {
					t.Errorf("spec %d: %d cores but Stats.Cores=%d", i, len(r.Cores), r.Stats.Cores)
				}
			}
		})
	}
}

// TestQueryBatchCountOnly checks the count-only mode against full results.
func TestQueryBatchCountOnly(t *testing.T) {
	g, err := tkc.NewGraph(randomEdges(11, 25, 300, 50))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := batchSpecs(g)
	full := g.RunBatch(ctx, batchReqs(g, specs), tkc.BatchOptions{Parallelism: -1})
	counted := g.RunBatch(ctx, batchReqs(g, specs), tkc.BatchOptions{Parallelism: -1, CountOnly: true})
	for i := range specs {
		if counted[i].Err != nil {
			t.Fatalf("spec %d: %v", i, counted[i].Err)
		}
		if counted[i].Cores != nil {
			t.Errorf("spec %d: CountOnly materialised %d cores", i, len(counted[i].Cores))
		}
		if counted[i].Stats.Cores != full[i].Stats.Cores || counted[i].Stats.Edges != full[i].Stats.Edges {
			t.Errorf("spec %d: count-only stats %+v differ from full %+v", i, counted[i].Stats, full[i].Stats)
		}
	}
}

// TestQueryBatchBadSpecs checks that invalid specs fail individually
// without poisoning their neighbours.
func TestQueryBatchBadSpecs(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.TimeSpan()
	specs := []tkc.QuerySpec{
		{K: 0, Start: lo, End: hi},             // invalid k
		{K: 2, Start: lo, End: hi},             // fine
		{K: 2, Start: hi + 100, End: hi + 200}, // no timestamps
		{K: 2, Start: lo, End: hi},             // fine
	}
	ctx := context.Background()
	res := g.RunBatch(ctx, batchReqs(g, specs))
	if res[0].Err == nil {
		t.Error("k=0 spec succeeded")
	}
	if res[2].Err != tkc.ErrNoTimestamps {
		t.Errorf("empty-range spec: got %v, want ErrNoTimestamps", res[2].Err)
	}
	for _, i := range []int{1, 3} {
		if res[i].Err != nil {
			t.Errorf("spec %d: %v", i, res[i].Err)
		}
		if len(res[i].Cores) == 0 {
			t.Errorf("spec %d returned no cores", i)
		}
	}
	if !reflect.DeepEqual(res[1].Cores, res[3].Cores) {
		t.Error("identical specs returned different cores")
	}
	if got := g.RunBatch(ctx, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// TestQueryBatchTimings checks the phase-timing satellite: a successful
// Enum query must report a positive CoreTime when it actually runs the
// phase, and a zero CoreTime (plus the CacheHit flag) when the serving
// cache supplies the tables instead.
func TestQueryBatchTimings(t *testing.T) {
	g, err := tkc.NewGraph(randomEdges(3, 30, 400, 60))
	if err != nil {
		t.Fatal(err)
	}
	g.SetCacheOptions(tkc.CacheOptions{Disable: true})
	ctx := context.Background()
	lo, hi := g.TimeSpan()
	qs, err := g.Query(2).Window(lo, hi).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if qs.CoreTime <= 0 {
		t.Errorf("Count reported CoreTime %v, want > 0", qs.CoreTime)
	}
	if qs.CacheHit {
		t.Error("cache-disabled query reported CacheHit")
	}
	res := g.RunBatch(ctx, []*tkc.Request{g.Query(2).Window(lo, hi)}, tkc.BatchOptions{Parallelism: 1, CountOnly: true})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Stats.CoreTime <= 0 {
		t.Errorf("batch reported CoreTime %v, want > 0", res[0].Stats.CoreTime)
	}

	// With the cache enabled, the same repeated query skips the phase:
	// the first execution pays (and reports) the build, the repeat is a
	// hit with CoreTime zero.
	g.SetCacheOptions(tkc.CacheOptions{})
	if qs, err = g.Query(2).Window(lo, hi).Count(ctx); err != nil {
		t.Fatal(err)
	}
	if qs.CacheHit || qs.CoreTime <= 0 {
		t.Errorf("first cached run: CacheHit=%v CoreTime=%v, want miss with CoreTime > 0", qs.CacheHit, qs.CoreTime)
	}
	if qs, err = g.Query(2).Window(lo, hi).Count(ctx); err != nil {
		t.Fatal(err)
	}
	if !qs.CacheHit || qs.CoreTime != 0 {
		t.Errorf("repeat cached run: CacheHit=%v CoreTime=%v, want hit with CoreTime 0", qs.CacheHit, qs.CoreTime)
	}
}

// TestConcurrentBatchAndPrepared hammers the scratch pools from many
// goroutines at once — batches, prepared queries and one-shot queries
// interleaved — and checks every result. Run under -race this is the
// concurrency-safety proof for the pooled engine.
func TestConcurrentBatchAndPrepared(t *testing.T) {
	g, err := tkc.NewGraph(randomEdges(19, 30, 500, 70))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lo, hi := g.TimeSpan()
	specs := batchSpecs(g)
	want := g.RunBatch(ctx, batchReqs(g, specs), tkc.BatchOptions{Parallelism: 1})

	p, err := g.Prepare(2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	wantPrepared, err := p.Query().Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				switch (w + iter) % 3 {
				case 0:
					res := g.RunBatch(ctx, batchReqs(g, specs), tkc.BatchOptions{Parallelism: 2})
					for i := range res {
						if res[i].Err != nil {
							errs <- fmt.Errorf("batch spec %d: %v", i, res[i].Err)
							return
						}
						if !reflect.DeepEqual(res[i].Cores, want[i].Cores) {
							errs <- fmt.Errorf("batch spec %d diverged", i)
							return
						}
					}
				case 1:
					qs, err := p.Query().Count(ctx)
					if err != nil {
						errs <- err
						return
					}
					if qs.Cores != wantPrepared.Cores || qs.Edges != wantPrepared.Edges {
						errs <- fmt.Errorf("prepared count diverged: %+v vs %+v", qs, wantPrepared)
						return
					}
				default:
					qs, err := g.Query(2).Window(lo, hi).Count(ctx)
					if err != nil {
						errs <- err
						return
					}
					if qs.Cores != wantPrepared.Cores {
						errs <- fmt.Errorf("one-shot count diverged: %d vs %d", qs.Cores, wantPrepared.Cores)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
