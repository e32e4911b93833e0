package enum_test

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/gen"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestCountSplitSums checks that two sweeps split at every start time of
// the query range sum to CountStop's totals, on random graphs with and
// without parallel edges, k = 1..5 and trimmed windows.
func TestCountSplitSums(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	s := &enum.Scratch{}
	splits := 0
	for it := 0; it < 500; it++ {
		n := 5 + r.Intn(8)
		var g *tgraph.Graph
		if it%2 == 0 {
			g = randomGraph(r, n, 10+r.Intn(8*n), 3+r.Intn(14))
		} else {
			g = multiGraph(r, n, 10+r.Intn(8*n), 3+r.Intn(14))
		}
		k := 1 + r.Intn(5)
		ts := tgraph.TS(1 + r.Intn(int(g.TMax())/3+1))
		te := g.TMax() - tgraph.TS(r.Intn(int(g.TMax())/3+1))
		if te <= ts {
			ts, te = 1, g.TMax()
		}
		w := tgraph.Window{Start: ts, End: te}
		_, ecs, err := vct.Build(g, k, w)
		if err != nil {
			t.Fatal(err)
		}
		cores, edges, _ := enum.CountStop(ecs, s, nil)
		var walk enum.CountSink
		enum.EnumerateWith(g, ecs, &walk, s)
		if cores != walk.Cores || edges != walk.EdgeTotal {
			t.Fatalf("k=%d %v: CountStop (%d, %d), walk (%d, %d)", k, w, cores, edges, walk.Cores, walk.EdgeTotal)
		}
		for mid := w.Start + 1; mid <= w.End; mid++ {
			c, e, cancelled := enum.CountSplit(ecs, s, nil, mid)
			if cancelled || c != cores || e != edges {
				t.Fatalf("k=%d %v split at %d: (%d, %d, cancelled %v), want (%d, %d)", k, w, mid, c, e, cancelled, cores, edges)
			}
			splits++
		}
	}
	if splits < 2000 {
		t.Fatalf("only %d split counts ran", splits)
	}
}

// TestCountSplitStopsAndPanics checks a split count on a skyline large
// enough to split, which stays one sweep under GOMAXPROCS 1: a stop hook
// firing at once cancels it, and a hook that panics, on both goroutines
// or on the helper's only, reaches the caller of CountStop, after which
// the Scratch counts correctly again.
func TestCountSplitStopsAndPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rep, err := gen.ReplicaByCode("CM")
	if err != nil {
		t.Fatal(err)
	}
	g, err := rep.Generate(6000, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ecs, err := vct.Build(g, 3, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}
	mid := enum.CountSplitAt(ecs)
	if mid == 0 {
		t.Fatalf("a skyline of %d windows does not split", ecs.Size())
	}
	runtime.GOMAXPROCS(1)
	if m := enum.CountSplitAt(ecs); m != 0 {
		t.Fatalf("a count splits at %d under GOMAXPROCS 1", m)
	}
	runtime.GOMAXPROCS(2)
	s := &enum.Scratch{}
	cores, edges, _ := enum.CountSplit(ecs, s, nil, 0)
	if c, e, _ := enum.CountStop(ecs, s, nil); c != cores || e != edges {
		t.Fatalf("CountStop (%d, %d), one sweep (%d, %d)", c, e, cores, edges)
	}
	if _, _, cancelled := enum.CountStop(ecs, s, func() bool { return true }); !cancelled {
		t.Fatal("a split count ignored a stop hook that fires at once")
	}
	for name, count := range map[string]func(){
		"both": func() { enum.CountStop(ecs, s, func() bool { panic("stop hook") }) },
		"helper": func() {
			enum.CountSplit(ecs, s, func() bool {
				buf := make([]byte, 4096)
				if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "enum.(*helper).sweep") {
					panic("stop hook")
				}
				return false
			}, mid)
		},
	} {
		if got := panicOf(count); got != "stop hook" {
			t.Fatalf("%s: recovered %v, want the stop hook's panic", name, got)
		}
		if c, e, _ := enum.CountStop(ecs, s, nil); c != cores || e != edges {
			t.Fatalf("%s: CountStop after the panic (%d, %d), want (%d, %d)", name, c, e, cores, edges)
		}
	}
}

func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
