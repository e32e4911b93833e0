package temporalkcore_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	tkc "temporalkcore"
	"temporalkcore/internal/paperex"
)

// paperEdges returns the paper example shifted to non-contiguous raw
// timestamps (t -> 1000+10t) to exercise compression through the public
// API.
func paperEdges(shift bool) []tkc.Edge {
	out := make([]tkc.Edge, 0, len(paperex.Edges))
	for _, e := range paperex.Edges {
		t := e[2]
		if shift {
			t = 1000 + 10*e[2]
		}
		out = append(out, tkc.Edge{U: e[0], V: e[1], Time: t})
	}
	return out
}

func TestGraphBasics(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 9 || g.NumEdges() != 14 || g.TimestampCount() != 7 {
		t.Errorf("basics: %d %d %d", g.NumVertices(), g.NumEdges(), g.TimestampCount())
	}
	if g.KMax() != 2 {
		t.Errorf("KMax = %d, want 2", g.KMax())
	}
	min, max := g.TimeSpan()
	if min != 1 || max != 7 {
		t.Errorf("TimeSpan = %d..%d", min, max)
	}
}

func TestCoresMatchFigure2(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(true))
	if err != nil {
		t.Fatal(err)
	}
	// Raw range covering paper times 1..4.
	cores, err := g.Query(2).Window(1010, 1040).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 2 {
		t.Fatalf("got %d cores, want 2: %+v", len(cores), cores)
	}
	sort.Slice(cores, func(i, j int) bool { return len(cores[i].Edges) < len(cores[j].Edges) })
	if cores[0].Start != 1020 || cores[0].End != 1030 || len(cores[0].Edges) != 3 {
		t.Errorf("small core: %+v", cores[0])
	}
	if cores[1].Start != 1010 || cores[1].End != 1040 || len(cores[1].Edges) != 6 {
		t.Errorf("large core: %+v", cores[1])
	}
}

func TestAllAlgorithmsAgreeViaAPI(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	var counts []int64
	for _, algo := range []tkc.Algorithm{tkc.AlgoEnum, tkc.AlgoEnumBase, tkc.AlgoOTCD} {
		qs, err := g.Query(2).Window(1, 7).Algorithm(algo).Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, qs.Cores)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("algorithms disagree: %v", counts)
	}
	if counts[0] == 0 {
		t.Error("no cores found")
	}
}

func TestCoresFuncEarlyStop(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range g.Query(2).Window(1, 7).Seq(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Errorf("visited %d cores, want 2", n)
	}
}

func TestQueryErrors(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Query(0).Window(1, 7).Collect(ctx); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := g.Query(2).Window(100, 200).Collect(ctx); err != tkc.ErrNoTimestamps {
		t.Errorf("empty range: %v", err)
	}
	if _, err := g.Query(2).Window(7, 1).Collect(ctx); err != tkc.ErrEmptyRange {
		t.Errorf("inverted range: %v", err)
	}
	if _, err := tkc.NewGraph(nil); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestHighKNoCores(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	cores, err := g.Query(5).Window(1, 7).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 0 {
		t.Errorf("k=5 produced %d cores", len(cores))
	}
}

func TestCoreTimesAPI(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := g.CoreTimes(1, 2, 1, 7) // vertex v1
	if err != nil {
		t.Fatal(err)
	}
	want := paperex.VCT[1]
	if len(ents) != len(want) {
		t.Fatalf("v1 entries: %+v, want %v", ents, want)
	}
	for i, e := range ents {
		if e.Start != want[i][0] {
			t.Errorf("entry %d start = %d, want %d", i, e.Start, want[i][0])
		}
		if want[i][1] == paperex.Inf {
			if !e.Infinite {
				t.Errorf("entry %d should be infinite", i)
			}
		} else if e.Infinite || e.CoreTime != want[i][1] {
			t.Errorf("entry %d = %+v, want CT %d", i, e, want[i][1])
		}
	}
	if _, err := g.CoreTimes(999, 2, 1, 7); err == nil {
		t.Error("unknown vertex accepted")
	}
}

func TestVertexSets(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := g.VertexSets(2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("got %d vertex sets: %v", len(sets), sets)
	}
	// {1,2,4} and {1,2,3,4,9}.
	joined := make([]string, len(sets))
	for i, s := range sets {
		parts := make([]string, len(s))
		for j, v := range s {
			parts[j] = string(rune('0' + v))
		}
		joined[i] = strings.Join(parts, ",")
	}
	sort.Strings(joined)
	if joined[0] != "1,2,3,4,9" || joined[1] != "1,2,4" {
		t.Errorf("vertex sets: %v", joined)
	}
}

func TestLoadAPI(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.Load(strings.NewReader("1 2 5\n2 3 6\n1 3 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	cores, err := g.Query(2).Window(5, 7).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) != 1 || len(cores[0].Edges) != 3 {
		t.Errorf("triangle query: %+v", cores)
	}
	if _, err := tkc.Load(strings.NewReader("garbage here\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestStatsReported(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := g.Query(2).Window(1, 7).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if qs.VCTSize != 24 || qs.ECSSize != 18 {
		t.Errorf("sizes: VCT=%d ECS=%d, want 24/18", qs.VCTSize, qs.ECSSize)
	}
	if qs.Edges < qs.Cores {
		t.Errorf("|R|=%d < cores=%d", qs.Edges, qs.Cores)
	}
}
