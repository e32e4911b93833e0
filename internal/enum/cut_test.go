package enum_test

import (
	"math/rand"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestCutMatchesWindowBuild reads windows of random graphs from the full
// range's skyline and from their own builds: the raw streams, early-stop
// prefixes, counts in one sweep and split at every start time on a helper
// goroutine, and the windows read must all agree. A stop hook that fires
// at once cancels both cut readers.
func TestCutMatchesWindowBuild(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	s := &enum.Scratch{}
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(r, 10+r.Intn(10), 60+r.Intn(120), 12+r.Intn(20))
		k := 1 + r.Intn(3)
		_, fecs, err := vct.Build(g, k, g.FullWindow())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			tmax := int(g.TMax())
			a := 1 + r.Intn(tmax)
			w := tgraph.Window{Start: tgraph.TS(a), End: tgraph.TS(a + r.Intn(tmax-a+1))}
			_, ecs, err := vct.Build(g, k, w)
			if err != nil {
				t.Fatal(err)
			}
			var want, got rawSink
			enum.EnumerateStop(g, ecs, &want, s, nil)
			if done, _ := enum.EnumerateWindowStop(g, fecs, w, &got, s, nil); !done || !sameStream(got.cores, want.cores) || s.Windows() != ecs.Size() {
				t.Fatalf("k=%d %v: cut emitted %+v over %d windows, build %+v over %d", k, w, got.cores, s.Windows(), want.cores, ecs.Size())
			}
			for n := 1; n <= 2; n++ {
				var part rawSink
				enum.EnumerateWindowStop(g, fecs, w, &enum.LimitSink{Inner: &part, Max: int64(n)}, s, nil)
				if m := min(n, len(want.cores)); !sameStream(part.cores, want.cores[:m]) {
					t.Fatalf("k=%d %v: cut stopped after %d emitted %+v, want %+v", k, w, n, part.cores, want.cores[:m])
				}
			}
			cores, edges, _ := enum.CountStop(ecs, s, nil)
			for mid := w.Start; mid <= w.End; mid++ {
				at := mid
				if mid == w.Start {
					at = 0 // one sweep
				}
				if c, e, cancelled := enum.CountWindowSplit(g, fecs, w, s, nil, at); cancelled || c != cores || e != edges {
					t.Fatalf("k=%d %v split at %d: cut count (%d, %d, cancelled %v), build (%d, %d)", k, w, at, c, e, cancelled, cores, edges)
				}
			}
			stop := func() bool { return true }
			if _, _, cancelled := enum.CountWindowStop(g, fecs, w, s, stop); !cancelled {
				t.Fatalf("k=%d %v: the cut count ignored a stop hook that fires at once", k, w)
			}
			if _, cancelled := enum.EnumerateWindowStop(g, fecs, w, &rawSink{}, s, stop); !cancelled {
				t.Fatalf("k=%d %v: the cut walk ignored a stop hook that fires at once", k, w)
			}
		}
	}
}

// TestCutRejectsWindowOutsideRange pins the window variants' contract: a
// window outside the skyline's range is a caller's bug, reported at once.
func TestCutRejectsWindowOutsideRange(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 8, 40, 10)
	w := tgraph.Window{Start: 2, End: g.TMax() - 1}
	_, ecs, err := vct.Build(g, 2, w)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("counting the full range of a window's skyline did not panic")
		}
	}()
	enum.CountWindowStop(g, ecs, g.FullWindow(), &enum.Scratch{}, nil)
}
