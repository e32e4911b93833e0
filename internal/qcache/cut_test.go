package qcache

import (
	"context"
	"testing"
	"time"

	"temporalkcore/internal/paperex"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestLookupCutSources walks Lookup through its sources on the paper's
// example graph: window builds are Missed until their charges reach the
// full range's price; then Buy, unless the full range is in flight or
// oversize; then Cut once it is resident; Exact for resident windows.
// Retirement drops the charges.
func TestLookupCutSources(t *testing.T) {
	g := paperex.Graph()
	const k = 2
	ctx := context.Background()
	fw := g.FullWindow()
	full := Key{Seq: 1, K: k, W: fw}
	build := func(w tgraph.Window) func() (*Entry, error) {
		return func() (*Entry, error) {
			ix, ecs, err := vct.Build(g, k, w)
			if err != nil {
				return nil, err
			}
			return NewEntry(ix, ecs, time.Millisecond), nil
		}
	}
	var wins []tgraph.Window // distinct windows short of the full range
	for d := tgraph.TS(1); d < fw.End-fw.Start; d++ {
		wins = append(wins, tgraph.Window{Start: fw.Start + d, End: fw.End}, tgraph.Window{Start: fw.Start, End: fw.End - d})
	}
	price := int64(buyShare * float64(buildCost(g.NumEdges(), fw.Len())))

	// rent builds windows until Lookup says Buy, checking Missed before,
	// and returns how many it built and the prediction Lookup gave, which
	// scales their CoreTime by the price over the charges paid.
	rent := func(c *Cache, seq int64) (int, time.Duration) {
		t.Helper()
		var paid int64
		for i, w := range wins {
			key := Key{Seq: seq, K: k, W: w}
			_, src, predict := c.Lookup(key, Key{Seq: seq, K: k, W: fw}, g.NumEdges())
			if paid >= price {
				if src != Buy {
					t.Fatalf("window %d: %d paid of %d, Lookup says %d", i, paid, price, src)
				}
				if want := time.Duration(float64(time.Duration(i)*time.Millisecond) * float64(price) / float64(paid)); predict != want {
					t.Fatalf("predicted %v for the full range, want %v", predict, want)
				}
				return i, predict
			}
			if src != Missed {
				t.Fatalf("window %d: %d paid of %d, Lookup says %d", i, paid, price, src)
			}
			if _, how, err := c.GetOrBuild(ctx, key, build(w)); err != nil || how != Built {
				t.Fatal(how, err)
			}
			lo, hi := g.EdgesIn(w)
			paid += buildCost(int(hi-lo), w.Len())
		}
		t.Fatalf("%d windows paid less than %d", len(wins), price)
		return 0, 0
	}

	c := New(1 << 30)
	n, _ := rent(c, 1)
	if ent, src, _ := c.Lookup(Key{Seq: 1, K: k, W: wins[0]}, full, g.NumEdges()); src != Exact || ent == nil {
		t.Fatalf("a built window: Lookup says %d", src)
	}

	// A buy in flight sends the next window to its own build.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrBuild(ctx, full, func() (*Entry, error) {
			close(started)
			<-release
			return build(fw)()
		})
	}()
	<-started
	if _, src, _ := c.Lookup(Key{Seq: 1, K: k, W: wins[n]}, full, g.NumEdges()); src != Missed {
		t.Fatalf("with the buy in flight, Lookup says %d", src)
	}
	close(release)
	<-done
	before := c.Stats()
	if ent, src, _ := c.Lookup(Key{Seq: 1, K: k, W: wins[n]}, full, g.NumEdges()); src != Cut || ent == nil || ent.Ecs.Range != fw {
		t.Fatalf("with the full range resident, Lookup says %d", src)
	}
	c.CountCut()
	if st := c.Stats(); st.Cuts != before.Cuts+2 || st.Hits != before.Hits || st.Misses != before.Misses {
		t.Fatalf("a cut and a counted cut moved %+v to %+v", before, st)
	}
	if _, src, _ := c.Lookup(full, full, g.NumEdges()); src != Exact {
		t.Fatalf("the full range itself: Lookup says %d", src)
	}

	// Retirement drops the charges with the epoch.
	c = New(1 << 30)
	rent(c, 1)
	c.RetireBelow(2)
	if _, src, _ := c.Lookup(Key{Seq: 1, K: k, W: wins[0]}, full, g.NumEdges()); src != Missed {
		t.Fatalf("after retiring the epoch, Lookup says %d", src)
	}

	// A full range over the budget is built once and never bought again.
	ix, ecs, err := vct.Build(g, k, fw)
	if err != nil {
		t.Fatal(err)
	}
	c = New(NewEntry(ix, ecs, 0).Bytes - 1)
	n, _ = rent(c, 1)
	if _, _, err := c.GetOrBuild(ctx, full, build(fw)); err != nil {
		t.Fatal(err)
	}
	if _, src, _ := c.Lookup(Key{Seq: 1, K: k, W: wins[n]}, full, g.NumEdges()); src != Missed {
		t.Fatalf("after an oversize full range, Lookup says %d", src)
	}
}

// TestChargeSlotsReplaceLeastPaid fills every charge slot, then charges a
// new (epoch, k): it takes the slot of the pair that has paid least.
func TestChargeSlotsReplaceLeastPaid(t *testing.T) {
	c := New(1 << 20)
	for k := 1; k <= chargeSlots; k++ {
		c.chargeOf(Key{Seq: 1, K: k}, true).paid = int64(10 * k)
	}
	c.chargeOf(Key{Seq: 1, K: 3}, true).paid = 5
	c.chargeOf(Key{Seq: 2, K: 1}, true).paid = 7
	if c.chargeOf(Key{Seq: 1, K: 3}, false) != nil {
		t.Fatal("the pair that paid least kept its slot")
	}
	for _, k := range []int{1, 2, 4, 5, 6, 7, 8} {
		if c.chargeOf(Key{Seq: 1, K: k}, false) == nil {
			t.Fatalf("k=%d lost its slot", k)
		}
	}
	if ch := c.chargeOf(Key{Seq: 2, K: 1}, false); ch == nil || ch.paid != 7 {
		t.Fatalf("the new pair's slot: %+v", ch)
	}
}

// TestLookupAllocatesNothing pins what a cold window's lookup adds to its
// build: one locked probe that allocates nothing, whether it misses,
// charges a new (epoch, k) or finds an entry.
func TestLookupAllocatesNothing(t *testing.T) {
	c := New(1 << 20)
	w := tgraph.Window{Start: 1, End: 10}
	full := Key{Seq: 1, K: 2, W: tgraph.Window{Start: 1, End: 100}}
	c.Add(Key{Seq: 1, K: 2, W: w}, entry(10))
	k := 0
	if n := testing.AllocsPerRun(100, func() {
		k++
		c.Lookup(Key{Seq: int64(k), K: 2, W: w}, full, 1000)
		c.chargeOf(Key{Seq: int64(k), K: 2}, true)
		c.Lookup(Key{Seq: 1, K: 2, W: w}, full, 1000)
	}); n != 0 {
		t.Fatalf("Lookup allocated %v times per run", n)
	}
}
