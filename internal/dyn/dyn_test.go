package dyn_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"temporalkcore/internal/core"
	"temporalkcore/internal/dyn"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// countQuery runs a one-shot count query and renders every observable
// result dimension into a comparable string.
func countQuery(t *testing.T, g *tgraph.Graph, k int, w tgraph.Window) string {
	t.Helper()
	sink := &enum.CountSink{}
	st, err := core.Query(g, k, w, sink, core.Options{})
	if err != nil {
		t.Fatalf("core.Query(k=%d, w=%v): %v", k, w, err)
	}
	return fmt.Sprintf("cores=%d edges=%d vct=%d ecs=%d", sink.Cores, sink.EdgeTotal, st.VCTSize, st.ECSSize)
}

// countView renders the same dimensions out of a View by enumerating it
// with a private scratch, the way concurrent readers do.
func countView(v *dyn.View) string {
	sink := &enum.CountSink{}
	var s enum.Scratch
	enum.EnumerateStop(v.G, v.Ecs, sink, &s, nil)
	return fmt.Sprintf("cores=%d edges=%d vct=%d ecs=%d", sink.Cores, sink.EdgeTotal, v.Ix.Size(), v.Ecs.Size())
}

func randomEdges(r *rand.Rand, n, m int) []tgraph.RawEdge {
	var edges []tgraph.RawEdge
	time := int64(1)
	for len(edges) < m {
		if r.Intn(3) == 0 {
			time++
		}
		edges = append(edges, tgraph.RawEdge{U: int64(r.Intn(n)), V: int64(r.Intn(n)), Time: time})
	}
	return edges
}

// TestIndexFollowsAppends grows a graph batch by batch; after every batch
// the refreshed index must answer exactly like a one-shot query on the
// current graph, over both the full range and a trailing window.
func TestIndexFollowsAppends(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		edges := randomEdges(r, 6+r.Intn(20), 60+r.Intn(200))
		nb := 2 + r.Intn(4)
		cut := len(edges) / (nb + 1)
		g, err := tgraph.FromRawEdges(edges[:cut])
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + r.Intn(2)
		d, err := dyn.New(g, k, g.FullWindow())
		if err != nil {
			t.Fatal(err)
		}
		for i := cut; i < len(edges); i += cut {
			j := i + cut
			if j > len(edges) {
				j = len(edges)
			}
			if _, err := g.Append(edges[i:j]); err != nil {
				t.Fatalf("seed %d: Append: %v", seed, err)
			}
			// Trailing window: last ~half of the ranks.
			w := tgraph.Window{Start: 1 + g.TMax()/2, End: g.TMax()}
			for _, win := range []tgraph.Window{g.FullWindow(), w} {
				if err := d.RefreshAt(g, win, nil); err != nil {
					t.Fatalf("seed %d: Refresh(%v): %v", seed, win, err)
				}
				if got, want := countView(d.View()), countQuery(t, g, k, win); got != want {
					t.Fatalf("seed %d k=%d w=%v after append: dyn %q != one-shot %q", seed, k, win, got, want)
				}
			}
		}
		st := d.Stats()
		if st.Patches == 0 {
			t.Fatalf("seed %d: no refresh used the patch path (stats %+v)", seed, st)
		}
	}
}

// TestIndexShortCachedWindow regresses the cachedEnd-crossing bug: an
// index whose cached window ends before the graph frontier must still
// refresh to a wider window correctly (the transition crossing the cached
// range end must not drop the leaving-edge worklist pushes of vertices
// that were pinned until that very transition).
func TestIndexShortCachedWindow(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		edges := randomEdges(r, 5+r.Intn(15), 40+r.Intn(150))
		cut := len(edges) * 3 / 4
		g, err := tgraph.FromRawEdges(edges[:cut])
		if err != nil {
			t.Fatal(err)
		}
		if g.TMax() < 3 {
			continue
		}
		k := 2
		// Cached window ends 1-2 ranks before the pre-append frontier.
		short := tgraph.Window{Start: 1, End: g.TMax() - tgraph.TS(1+r.Intn(2))}
		d, err := dyn.New(g, k, short)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Append(edges[cut:]); err != nil {
			t.Fatal(err)
		}
		if err := d.RefreshAt(g, g.FullWindow(), nil); err != nil {
			t.Fatal(err)
		}
		if got, want := countView(d.View()), countQuery(t, g, k, g.FullWindow()); got != want {
			t.Fatalf("seed %d: refresh from short cached window %v: dyn %q != one-shot %q", seed, short, got, want)
		}
	}
}

func TestIndexNoopAndStale(t *testing.T) {
	g := tgraph.MustFromTriples(
		[3]int64{1, 2, 1}, [3]int64{2, 3, 1}, [3]int64{1, 3, 2}, [3]int64{3, 4, 3},
	)
	d, err := dyn.New(g, 2, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}
	if d.StaleAt(g, g.FullWindow()) {
		t.Fatal("fresh index reported stale")
	}
	if err := d.RefreshAt(g, g.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Noops != 1 {
		t.Fatalf("stats = %+v, want one noop", st)
	}
	if _, err := g.Append([]tgraph.RawEdge{{U: 1, V: 4, Time: 5}}); err != nil {
		t.Fatal(err)
	}
	if !d.StaleAt(g, g.FullWindow()) {
		t.Fatal("index not stale after append")
	}
	if err := d.RefreshAt(g, tgraph.Window{Start: 1, End: g.TMax() + 1}, nil); err == nil {
		t.Fatal("refresh beyond TMax succeeded")
	}
	if err := d.RefreshAt(g, g.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	if d.StaleAt(g, g.FullWindow()) {
		t.Fatal("index stale after refresh")
	}
}

// TestViewPinnedAcrossRefreshes: a held View must keep answering for its
// own epoch byte-identically while the writer appends, freezes and
// refreshes through several newer generations on the index's one patch
// Scratch. In the evicting-cache case each View shares its tables with a
// serving-cache entry, and every entry but the last is dropped while its
// View is still held: the budget fits one entry, so a refresh's insert
// evicts the previous entry, and every second refresh's entry is retired
// with RetireBelow before the next refresh. A reader goroutine per View
// counts it until the writer is done, so under -race a write to published
// tables is reported.
func TestViewPinnedAcrossRefreshes(t *testing.T) {
	const k = 2
	r := rand.New(rand.NewSource(11))
	edges := randomEdges(r, 15, 400)
	// The refreshes below see the graph at 150, 200, ... 350 edges. The
	// budget admits the largest of their entries.
	var budget int64
	for n := 150; n < len(edges); n += 50 {
		gn, err := tgraph.FromRawEdges(edges[:n])
		if err != nil {
			t.Fatal(err)
		}
		ix, ecs, err := vct.Build(gn, k, gn.FullWindow())
		if err != nil {
			t.Fatal(err)
		}
		budget = max(budget, qcache.NewEntry(ix, ecs, 0).Bytes)
	}

	for _, cached := range []bool{false, true} {
		name := "no-cache"
		if cached {
			name = "evicting-cache"
		}
		t.Run(name, func(t *testing.T) {
			g, err := tgraph.FromRawEdges(edges[:150])
			if err != nil {
				t.Fatal(err)
			}
			d, err := dyn.New(g, k, g.FullWindow())
			if err != nil {
				t.Fatal(err)
			}
			var c *qcache.Cache
			if cached {
				c = qcache.New(budget)
				d.SetCache(c)
			}

			type held struct {
				v    *dyn.View
				want string
			}
			var views []held
			done := make(chan struct{})
			var readers sync.WaitGroup
			for i := 150; i < len(edges); i += 50 {
				fz := g.Freeze()
				if err := d.RefreshAt(fz, fz.FullWindow(), nil); err != nil {
					t.Fatal(err)
				}
				v := d.View()
				if v.G != fz || !v.G.Frozen() {
					t.Fatal("published View not bound to the frozen epoch")
				}
				want := countView(v)
				views = append(views, held{v: v, want: want})
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						if got := countView(v); got != want {
							t.Errorf("view of seq %d changed under a reader:\n got %s\nwant %s", v.Seq, got, want)
							return
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}()
				if cached && len(views)%2 == 0 {
					c.RetireBelow(v.Seq + 1)
				}

				j := min(i+50, len(edges))
				if _, err := g.Append(edges[i:j]); err != nil {
					t.Fatal(err)
				}
				for vi, h := range views {
					if got := countView(h.v); got != h.want {
						t.Fatalf("view %d changed under later refreshes:\n got %s\nwant %s", vi, got, h.want)
					}
				}
			}
			close(done)
			readers.Wait()
			if cached {
				st := c.Stats()
				if st.Evictions == 0 || st.Retired == 0 || st.Evictions+st.Retired != int64(len(views)-1) || st.Oversize != 0 {
					t.Fatalf("cache stats %+v: want every entry but the last evicted or retired, none oversize", st)
				}
			}
			// Each view must also match a quiesced one-shot rebuild of its
			// own epoch.
			for vi, h := range views {
				if got, want := countView(h.v), countQuery(t, h.v.G, k, h.v.W); got != want {
					t.Fatalf("view %d: %q != quiesced rebuild %q", vi, got, want)
				}
			}
		})
	}
}

// TestRefreshAtStop: a cancelled refresh returns vct.ErrStopped, keeps the
// current generation serving, and a retried refresh succeeds.
func TestRefreshAtStop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	edges := randomEdges(r, 20, 600)
	g, err := tgraph.FromRawEdges(edges[:200])
	if err != nil {
		t.Fatal(err)
	}
	d, err := dyn.New(g, 2, g.FullWindow())
	if err != nil {
		t.Fatal(err)
	}
	before := countView(d.View())
	if _, err := g.Append(edges[200:]); err != nil {
		t.Fatal(err)
	}
	err = d.RefreshAt(g, g.FullWindow(), func() bool { return true })
	if err == nil {
		t.Skip("refresh finished before the first cancellation poll")
	}
	if !errors.Is(err, vct.ErrStopped) {
		t.Fatalf("cancelled refresh = %v, want vct.ErrStopped", err)
	}
	if got := countView(d.View()); got != before {
		t.Fatalf("cancelled refresh disturbed the current view: %q != %q", got, before)
	}
	if err := d.RefreshAt(g, g.FullWindow(), nil); err != nil {
		t.Fatal(err)
	}
	if got, want := countView(d.View()), countQuery(t, g, 2, g.FullWindow()); got != want {
		t.Fatalf("refresh after a cancelled refresh: %q != %q", got, want)
	}
}
