package temporalkcore_test

import (
	"context"
	"math/rand"
	"testing"

	tkc "temporalkcore"

	"temporalkcore/internal/gen"
	"temporalkcore/internal/tgraph"
)

// diffGraph synthesises one small seeded graph (internal/gen's hub-core +
// community-burst model) and returns it as a public Graph plus its raw
// edge list in time order.
func diffGraph(t *testing.T, seed int64) (*tkc.Graph, []tkc.Edge) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cfg := gen.Config{
		Name:        "difftest",
		Seed:        seed,
		Vertices:    25 + r.Intn(50),
		Edges:       120 + r.Intn(220),
		Timestamps:  15 + r.Intn(40),
		HubEdgeProb: 0.2 + 0.3*r.Float64(),
		MixEdgeProb: 0.25,
		Burstiness:  0.4 * r.Float64(),
		Communities: 1 + r.Intn(3),
	}
	ig, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: gen: %v", seed, err)
	}
	edges := make([]tkc.Edge, ig.NumEdges())
	for i := range edges {
		te := ig.Edge(tgraph.EID(i))
		edges[i] = tkc.Edge{U: ig.Label(te.U), V: ig.Label(te.V), Time: ig.RawTime(te.T)}
	}
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatalf("seed %d: NewGraph: %v", seed, err)
	}
	return g, edges
}

// diffQueries samples query ranges across the graph's time span.
func diffQueries(g *tkc.Graph, r *rand.Rand) [][2]int64 {
	lo, hi := g.TimeSpan()
	span := hi - lo
	qs := [][2]int64{{lo, hi}}
	for i := 0; i < 2; i++ {
		s := lo + r.Int63n(span/2+1)
		e := s + span/4 + r.Int63n(span/2+1)
		if e > hi {
			e = hi
		}
		qs = append(qs, [2]int64{s, e})
	}
	return qs
}

// TestAlgorithmsAgree is the differential harness across enumeration
// algorithms: on ~50 seeded random temporal graphs, the optimal Enum, the
// straightforward EnumBase and the OTCD baseline must produce identical
// core sets for identical (k, start, end) queries.
func TestAlgorithmsAgree(t *testing.T) {
	ctx := context.Background()
	if testing.Short() {
		t.Skip("differential harness is slow")
	}
	algos := []struct {
		name string
		algo tkc.Algorithm
	}{
		{"Enum", tkc.AlgoEnum},
		{"EnumBase", tkc.AlgoEnumBase},
		{"OTCD", tkc.AlgoOTCD},
	}
	for seed := int64(0); seed < 50; seed++ {
		g, _ := diffGraph(t, seed)
		r := rand.New(rand.NewSource(seed * 7919))
		for _, q := range diffQueries(g, r) {
			for _, k := range []int{2, 3} {
				var ref string
				for i, a := range algos {
					cores, err := g.Query(k).Window(q[0], q[1]).Algorithm(a.algo).Collect(ctx)
					if err != nil {
						t.Fatalf("seed %d %s k=%d [%d,%d]: %v", seed, a.name, k, q[0], q[1], err)
					}
					cs := coreSetString(cores)
					if i == 0 {
						ref = cs
						continue
					}
					if cs != ref {
						t.Fatalf("seed %d k=%d [%d,%d]: %s disagrees with Enum\n--- %s (%d cores) ---\n%.2000s\n--- Enum ---\n%.2000s",
							seed, k, q[0], q[1], a.name, a.name, len(cores), cs, ref)
					}
				}
			}
		}
	}
}

// TestAppendEqualsScratchBuild is the differential harness across build
// paths: on seeded random graphs, splitting the time-ordered edge list at
// a random point, building the prefix and appending the suffix must
// answer every query exactly like a one-shot build.
func TestAppendEqualsScratchBuild(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 50; seed++ {
		full, edges := diffGraph(t, seed+1000)
		r := rand.New(rand.NewSource(seed * 104729))
		cut := 1 + r.Intn(len(edges)-1)
		appended, err := tkc.NewGraph(edges[:cut])
		if err != nil {
			t.Fatalf("seed %d: prefix build: %v", seed, err)
		}
		// Append the suffix in 1-3 batches.
		batches := 1 + r.Intn(3)
		per := (len(edges) - cut + batches - 1) / batches
		for i := cut; i < len(edges); i += per {
			j := i + per
			if j > len(edges) {
				j = len(edges)
			}
			if _, err := appended.Append(edges[i:j]...); err != nil {
				t.Fatalf("seed %d: append: %v", seed, err)
			}
		}
		if appended.NumEdges() != full.NumEdges() || appended.TimestampCount() != full.TimestampCount() {
			t.Fatalf("seed %d: appended shape %d/%d != full %d/%d", seed,
				appended.NumEdges(), appended.TimestampCount(), full.NumEdges(), full.TimestampCount())
		}
		for _, q := range diffQueries(full, r) {
			for _, k := range []int{2, 3} {
				got, err := appended.Query(k).Window(q[0], q[1]).Collect(ctx)
				if err != nil {
					t.Fatalf("seed %d append-path k=%d: %v", seed, k, err)
				}
				want, err := full.Query(k).Window(q[0], q[1]).Collect(ctx)
				if err != nil {
					t.Fatalf("seed %d scratch-path k=%d: %v", seed, k, err)
				}
				if coreSetString(got) != coreSetString(want) {
					t.Fatalf("seed %d k=%d [%d,%d]: append-then-query differs from build-from-scratch",
						seed, k, q[0], q[1])
				}
				gq, err := appended.Query(k).Window(q[0], q[1]).Count(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wq, err := full.Query(k).Window(q[0], q[1]).Count(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if gq.Cores != wq.Cores || gq.Edges != wq.Edges || gq.VCTSize != wq.VCTSize || gq.ECSSize != wq.ECSSize {
					t.Fatalf("seed %d k=%d: append-path stats {%d %d %d %d} != scratch {%d %d %d %d}",
						seed, k, gq.Cores, gq.Edges, gq.VCTSize, gq.ECSSize, wq.Cores, wq.Edges, wq.VCTSize, wq.ECSSize)
				}
			}
		}
	}
}
