package temporalkcore_test

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	tkc "temporalkcore"
)

// reqGraph builds a random graph that is dense enough to hold several
// 2-cores and 3-cores across many windows.
func reqGraph(t testing.TB, seed int64, n, m int) *tkc.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges := make([]tkc.Edge, 0, m)
	tme := int64(0)
	for len(edges) < m {
		u, v := int64(r.Intn(n)), int64(r.Intn(n))
		if u == v {
			continue
		}
		if r.Intn(3) == 0 {
			tme++
		}
		edges = append(edges, tkc.Edge{U: u, V: v, Time: tme})
	}
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeVertices returns the distinct endpoint labels of edges, sorted
// ascending: the vertex projection of a core given by its edges.
func edgeVertices(edges []tkc.Edge) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, e := range edges {
		for _, v := range []int64{e.U, e.V} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func coresEqual(t *testing.T, what string, got, want []tkc.Core) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cores, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Start != want[i].Start || got[i].End != want[i].End {
			t.Fatalf("%s: core %d TTI [%d,%d], want [%d,%d]", what, i, got[i].Start, got[i].End, want[i].Start, want[i].End)
		}
		if !reflect.DeepEqual(got[i].Edges, want[i].Edges) {
			t.Fatalf("%s: core %d edges differ", what, i)
		}
	}
}

// TestRequestOneShotMatchesV1 locks the one-shot request's execution
// forms (Collect, Count, Seq, EarlyStop, First) to each other.
func TestRequestOneShotMatchesV1(t *testing.T) {
	g := reqGraph(t, 1, 40, 400)
	ctx := context.Background()
	lo, hi := g.TimeSpan()

	want, err := g.Query(2).Window(lo, hi).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Query(2).Window(lo, hi).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coresEqual(t, "Collect", got, want)

	// Default window == whole history.
	got, err = g.Query(2).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coresEqual(t, "Collect default window", got, want)

	// Count is the same on every execution.
	wantQS, err := g.Query(2).Window(lo, hi).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotQS, err := g.Query(2).Window(lo, hi).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gotQS.Cores != wantQS.Cores || gotQS.Edges != wantQS.Edges ||
		gotQS.VCTSize != wantQS.VCTSize || gotQS.ECSSize != wantQS.ECSSize {
		t.Fatalf("Count = %+v, want %+v", gotQS, wantQS)
	}

	// Seq streams the same cores in the same order; stats arrive via Stats.
	var qs tkc.QueryStats
	var streamed []tkc.Core
	for c, err := range g.Query(2).Window(lo, hi).Stats(&qs).Seq(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, c)
	}
	coresEqual(t, "Seq", streamed, want)
	if qs.Cores != wantQS.Cores {
		t.Fatalf("Stats dst after Seq = %+v, want %d cores", qs, wantQS.Cores)
	}

	// Breaking the Seq loop early stops the engine; EarlyStop(n) and First
	// agree with the prefix.
	var prefix []tkc.Core
	for c, err := range g.Query(2).Window(lo, hi).Seq(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, c)
		if len(prefix) == 3 {
			break
		}
	}
	coresEqual(t, "Seq break", prefix, want[:3])
	limited, err := g.Query(2).Window(lo, hi).EarlyStop(3).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coresEqual(t, "EarlyStop", limited, want[:3])
	first, ok, err := g.Query(2).Window(lo, hi).First(ctx)
	if err != nil || !ok {
		t.Fatalf("First: ok=%v err=%v", ok, err)
	}
	coresEqual(t, "First", []tkc.Core{first}, want[:1])

	// Algorithms agree through the builder.
	for _, algo := range []tkc.Algorithm{tkc.AlgoEnumBase, tkc.AlgoOTCD} {
		alt, err := g.Query(2).Window(lo, hi).Algorithm(algo).Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if alt.Cores != wantQS.Cores || alt.Edges != wantQS.Edges {
			t.Fatalf("algorithm %v: %d cores |R|=%d, want %d/%d", algo, alt.Cores, alt.Edges, wantQS.Cores, wantQS.Edges)
		}
	}
}

// TestRequestProjections checks the three projections against each other.
func TestRequestProjections(t *testing.T) {
	g := reqGraph(t, 2, 30, 300)
	ctx := context.Background()

	edgesProj, err := g.Query(2).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	vertsProj, err := g.Query(2).Project(tkc.ProjectVertices).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	countProj, err := g.Query(2).Project(tkc.ProjectCount).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(edgesProj) != len(vertsProj) || len(edgesProj) != len(countProj) {
		t.Fatalf("projection cardinalities differ: %d/%d/%d", len(edgesProj), len(vertsProj), len(countProj))
	}
	for i := range edgesProj {
		// Vertices projection == sorted distinct endpoints of the edges.
		seen := map[int64]bool{}
		var want []int64
		for _, e := range edgesProj[i].Edges {
			for _, v := range []int64{e.U, e.V} {
				if !seen[v] {
					seen[v] = true
					want = append(want, v)
				}
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if !reflect.DeepEqual(vertsProj[i].Vertices, want) {
			t.Fatalf("core %d: vertices %v, want %v", i, vertsProj[i].Vertices, want)
		}
		if vertsProj[i].Edges != nil || countProj[i].Edges != nil || countProj[i].Vertices != nil {
			t.Fatalf("core %d: projection leaked the wrong slices", i)
		}
		if countProj[i].Start != edgesProj[i].Start || countProj[i].End != edgesProj[i].End {
			t.Fatalf("core %d: count projection TTI differs", i)
		}
	}
}

// TestRequestEngines drives the prepared, watcher, snapshot and historical
// engines through the same builder and compares them with reference
// answers.
func TestRequestEngines(t *testing.T) {
	g := reqGraph(t, 3, 30, 300)
	ctx := context.Background()
	lo, hi := g.TimeSpan()

	want, err := g.Query(2).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Prepared.
	p, err := g.Prepare(2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Query().Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coresEqual(t, "prepared", got, want)

	// Watcher over the whole history.
	w, err := g.Watch(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err = w.Query().Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coresEqual(t, "watcher", got, want)

	// Sharded view over the same history: three shards, one executor.
	sg, err := tkc.ShardGraph(g, tkc.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	var st tkc.QueryStats
	got, err = sg.Latest().Query(2).Stats(&st).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coresEqual(t, "sharded", got, want)
	if st.Shards != 3 {
		t.Fatalf("sharded request overlapped %d shards, want 3", st.Shards)
	}

	// Snapshot (k,h)-core: the vertex projection vs the edge projection's
	// endpoints.
	sc, _, err := g.Query(2).Window(lo, hi).Snapshot(2).First(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantMembers := edgeVertices(sc.Edges)
	c, ok, err := g.Query(2).Window(lo, hi).Snapshot(2).Project(tkc.ProjectVertices).First(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ok && len(wantMembers) > 0 {
		t.Fatalf("snapshot: no core, the edge projection found %d members", len(wantMembers))
	}
	if ok && !reflect.DeepEqual(c.Vertices, wantMembers) {
		t.Fatalf("snapshot vertices %v, want %v", c.Vertices, wantMembers)
	}

	// Historical index.
	h, err := g.HistoricalIndex(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	hcEdges, _, err := h.Query(3).Window(lo, hi).First(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantHist := edgeVertices(hcEdges.Edges)
	hc, ok, err := h.Query(3).Window(lo, hi).Project(tkc.ProjectVertices).First(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ok && len(wantHist) > 0 {
		t.Fatalf("historical: no core, the edge projection found %d members", len(wantHist))
	}
	if ok && !reflect.DeepEqual(hc.Vertices, wantHist) {
		t.Fatalf("historical vertices %v, want %v", hc.Vertices, wantHist)
	}

	// Count-only runs of both snapshot engines tally the one core the edge
	// projection emits, whatever projection the request carries.
	for name, q := range map[string]func() *tkc.Request{
		"snapshot":   func() *tkc.Request { return g.Query(2).Window(lo, hi).Snapshot(2) },
		"historical": func() *tkc.Request { return h.Query(3).Window(lo, hi) },
	} {
		c, ok, err := q().First(ctx)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := q().Project(tkc.ProjectVertices).Count(ctx)
		if err != nil {
			t.Fatalf("%s Count: %v", name, err)
		}
		want := int64(0)
		if ok {
			want = 1
		}
		if qs.Cores != want || qs.Edges != int64(len(c.Edges)) {
			t.Fatalf("%s Count: %d cores / %d edges, First found %d / %d", name, qs.Cores, qs.Edges, want, len(c.Edges))
		}
	}
}

// TestRequestBuilderValidation locks the builder's conflict and argument
// errors to execution time.
func TestRequestBuilderValidation(t *testing.T) {
	g := reqGraph(t, 4, 20, 120)
	ctx := context.Background()
	lo, hi := g.TimeSpan()
	p, err := g.Prepare(2, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	w, err := g.Watch(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := reqGraph(t, 5, 10, 60)
	oLo, oHi := other.TimeSpan()
	h, err := other.HistoricalIndex(ctx, oLo, oHi)
	if err != nil {
		t.Fatal(err)
	}

	bad := map[string]*tkc.Request{
		"k < 1":                   g.Query(0),
		"window on prepared":      p.Query().Window(lo, hi),
		"window on watcher":       w.Query().Window(lo, hi),
		"algorithm on prepared":   p.Query().Algorithm(tkc.AlgoOTCD),
		"algorithm then snapshot": g.Query(2).Algorithm(tkc.AlgoOTCD).Snapshot(1),
		"snapshot h < 1":          g.Query(2).Snapshot(0),
		"snapshot then using":     g.Query(2).Snapshot(1).Using(h),
		"using wrong graph":       g.Query(2).Using(h),
		"unknown projection":      g.Query(2).Project(tkc.Projection(99)),
		"algorithm on historical": h.Query(2).Algorithm(tkc.AlgoEnumBase),
	}
	for name, r := range bad {
		if _, err := r.Collect(ctx); err == nil {
			t.Errorf("%s: no error", name)
		}
	}

	// A builder error does not panic Seq and surfaces as the only element.
	n := 0
	for _, err := range g.Query(0).Seq(ctx) {
		n++
		if err == nil {
			t.Error("Seq on invalid request yielded a core")
		}
	}
	if n != 1 {
		t.Errorf("Seq on invalid request yielded %d elements, want 1", n)
	}
}

// TestRunBatchMixed drives RunBatch with heterogeneous per-request options
// and checks spec-order delivery and per-item validation errors.
func TestRunBatchMixed(t *testing.T) {
	g := reqGraph(t, 6, 40, 500)
	ctx := context.Background()
	lo, hi := g.TimeSpan()

	wantCores, err := g.Query(2).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantQS, err := g.Query(3).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}

	res := g.RunBatch(ctx, []*tkc.Request{
		g.Query(2).Window(lo, hi),
		g.Query(3).Window(lo, hi).Project(tkc.ProjectCount),
		g.Query(0),                // invalid k
		g.Query(2).Window(hi, lo), // inverted range
		g.Query(2).Window(lo, hi).EarlyStop(2),
		g.Query(2).Window(lo, hi).Project(tkc.ProjectVertices),
	}, tkc.BatchOptions{Parallelism: 2})

	coresEqual(t, "batch[0]", res[0].Cores, wantCores)
	if res[1].Stats.Cores != wantQS.Cores || res[1].Cores != nil {
		t.Fatalf("batch[1] count = %+v cores=%v", res[1].Stats, res[1].Cores)
	}
	if res[2].Err == nil {
		t.Fatal("batch[2]: invalid k accepted")
	}
	if res[3].Err != tkc.ErrEmptyRange {
		t.Fatalf("batch[3]: err = %v, want ErrEmptyRange", res[3].Err)
	}
	if len(res[4].Cores) != 2 {
		t.Fatalf("batch[4]: %d cores, want 2 (EarlyStop)", len(res[4].Cores))
	}
	if len(res[5].Cores) != len(wantCores) || res[5].Cores[0].Vertices == nil {
		t.Fatalf("batch[5]: vertices projection missing")
	}

	// A request pinned to the default algorithm batches like one without,
	// and its result carries its spec.
	pinned := g.RunBatch(ctx, []*tkc.Request{g.Query(2).Window(lo, hi).Algorithm(tkc.AlgoEnum)})
	coresEqual(t, "pinned algorithm", pinned[0].Cores, wantCores)
	if want := (tkc.QuerySpec{K: 2, Start: lo, End: hi}); pinned[0].Spec != want {
		t.Fatalf("batch spec %+v, want %+v", pinned[0].Spec, want)
	}

	// Per-request Stats destinations are honoured in batches too.
	var qs tkc.QueryStats
	g.RunBatch(ctx, []*tkc.Request{g.Query(3).Window(lo, hi).Project(tkc.ProjectCount).Stats(&qs)})
	if qs.Cores != wantQS.Cores {
		t.Fatalf("batched Stats dst = %+v, want %d cores", qs, wantQS.Cores)
	}
}
