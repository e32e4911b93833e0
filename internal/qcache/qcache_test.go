package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temporalkcore/internal/tgraph"
)

func key(seq int64, k int) Key {
	return Key{Seq: seq, K: k, W: tgraph.Window{Start: 1, End: 10}}
}

func entry(bytes int64) *Entry { return &Entry{Bytes: bytes} }

func TestLRUEvictionUnderPressure(t *testing.T) {
	c := New(1000)
	c.Add(key(1, 1), entry(400))
	c.Add(key(1, 2), entry(400))
	if _, ok := c.Probe(key(1, 1)); !ok {
		t.Fatal("entry 1 missing before pressure")
	}
	// Touching key 1 made key 2 the LRU tail; the next insert must evict 2.
	c.Add(key(1, 3), entry(400))
	if _, ok := c.Probe(key(1, 2)); ok {
		t.Fatal("LRU tail survived eviction pressure")
	}
	if _, ok := c.Probe(key(1, 1)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Probe(key(1, 3)); !ok {
		t.Fatal("newest entry was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 1000 {
		t.Fatalf("resident bytes %d exceed the %d budget", st.Bytes, 1000)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestOversizeEntryNotAdmitted(t *testing.T) {
	c := New(1000)
	c.Add(key(1, 1), entry(50))
	c.Add(key(1, 2), entry(1001)) // larger than the whole budget
	if _, ok := c.Probe(key(1, 2)); ok {
		t.Fatal("oversize entry was admitted")
	}
	if _, ok := c.Probe(key(1, 1)); !ok {
		t.Fatal("resident entry was disturbed by a rejected insert")
	}
	// The rejection is remembered, so callers can route repeat queries to
	// their uncached path instead of rebuilding, and counted.
	if !c.Uncacheable(key(1, 2)) {
		t.Fatal("oversize key not remembered as uncacheable")
	}
	if c.Uncacheable(key(1, 1)) {
		t.Fatal("admitted key marked uncacheable")
	}
	if st := c.Stats(); st.Oversize != 1 {
		t.Fatalf("oversize = %d, want 1", st.Oversize)
	}
	// Admits adds the fixed per-entry overhead to the table estimate.
	if c.Admits(1000-entryOverhead+1) || !c.Admits(1000-entryOverhead) {
		t.Fatal("Admits disagrees with the budget")
	}
	// Retirement clears the memo with the epochs.
	c.RetireBelow(2)
	if c.Uncacheable(key(1, 2)) {
		t.Fatal("retired oversize memo survived")
	}
}

func TestProbeCountsNoMiss(t *testing.T) {
	c := New(1 << 10)
	if _, ok := c.Probe(key(1, 1)); ok {
		t.Fatal("probe hit an empty cache")
	}
	c.Add(key(1, 1), entry(64))
	if _, ok := c.Probe(key(1, 1)); !ok {
		t.Fatal("probe missed a resident entry")
	}
	st := c.Stats()
	if st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("probe accounting: hits=%d misses=%d, want 1/0", st.Hits, st.Misses)
	}
}

func TestBuildPanicDoesNotWedgeKey(t *testing.T) {
	c := New(1 << 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic did not propagate")
			}
		}()
		c.GetOrBuild(context.Background(), key(1, 1), func() (*Entry, error) { panic("boom") })
	}()
	// The flight was cleaned up: a fresh build runs and succeeds.
	ent, how, err := c.GetOrBuild(context.Background(), key(1, 1), func() (*Entry, error) {
		return entry(64), nil
	})
	if err != nil || ent == nil || how != Built {
		t.Fatalf("key wedged after builder panic: ent=%v how=%v err=%v", ent, how, err)
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := New(1 << 20)
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() (*Entry, error) {
		builds.Add(1)
		<-release
		return entry(64), nil
	}

	const readers = 8
	outcomes := make([]Outcome, readers)
	var wg sync.WaitGroup
	started := make(chan struct{}, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			ent, how, err := c.GetOrBuild(context.Background(), key(1, 1), build)
			if err != nil || ent == nil {
				t.Errorf("reader %d: ent=%v err=%v", i, ent, err)
			}
			outcomes[i] = how
		}(i)
	}
	for i := 0; i < readers; i++ {
		<-started
	}
	time.Sleep(20 * time.Millisecond) // let every goroutine reach the flight
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	built, shared := 0, 0
	for _, o := range outcomes {
		switch o {
		case Built:
			built++
		case Shared:
			shared++
		}
	}
	if built != 1 || shared != readers-1 {
		t.Fatalf("outcomes: %d built / %d shared, want 1 / %d", built, shared, readers-1)
	}
	st := c.Stats()
	if st.Misses != 1 || st.SingleflightShared != int64(readers-1) {
		t.Fatalf("stats: misses=%d shared=%d, want 1 / %d", st.Misses, st.SingleflightShared, readers-1)
	}

	// Every subsequent lookup is a plain hit.
	if _, how, err := c.GetOrBuild(context.Background(), key(1, 1), build); err != nil || how != Hit {
		t.Fatalf("post-flight lookup: outcome=%v err=%v, want Hit", how, err)
	}
}

func TestSingleflightWaiterRetriesAfterBuilderCancel(t *testing.T) {
	c := New(1 << 20)
	waiterIn := make(chan struct{})
	var calls atomic.Int64
	build := func() (*Entry, error) {
		if calls.Add(1) == 1 {
			<-waiterIn // hold the flight open until the waiter joins
			return nil, context.Canceled
		}
		return entry(64), nil
	}

	errs := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild(context.Background(), key(1, 1), build)
		errs <- err
	}()
	// Wait for the leader's flight, then join it as a waiter.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() {
		ent, _, err := c.GetOrBuild(context.Background(), key(1, 1), build)
		if err == nil && ent == nil {
			err = errors.New("nil entry without error")
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(waiterIn)

	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter should have retried past the cancelled builder, got %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("build ran %d times, want 2 (cancelled leader + retrying waiter)", n)
	}
}

func TestWaiterOwnContextCancels(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	defer close(release)
	go c.GetOrBuild(context.Background(), key(1, 1), func() (*Entry, error) {
		<-release
		return entry(64), nil
	})
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrBuild(ctx, key(1, 1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want its own context.Canceled", err)
	}
}

func TestRetireBelow(t *testing.T) {
	c := New(1 << 20)
	for seq := int64(1); seq <= 3; seq++ {
		c.Add(key(seq, 1), entry(64))
	}
	c.RetireBelow(3)
	for seq := int64(1); seq <= 2; seq++ {
		if _, ok := c.Probe(key(seq, 1)); ok {
			t.Fatalf("entry at retired seq %d survived", seq)
		}
	}
	if _, ok := c.Probe(key(3, 1)); !ok {
		t.Fatal("entry at the floor seq was dropped")
	}
	if st := c.Stats(); st.Retired != 2 {
		t.Fatalf("retired = %d, want 2", st.Retired)
	}

	// Retirement is advisory: a later insert below the floor (a long-held
	// snapshot rebuilding on miss) is admitted again, and the next
	// retirement drops it again. Lower floors are no-ops.
	c.Add(key(2, 9), entry(64))
	if _, ok := c.Probe(key(2, 9)); !ok {
		t.Fatal("re-insert below the retire floor was refused")
	}
	c.RetireBelow(1)
	if _, ok := c.Probe(key(2, 9)); !ok {
		t.Fatal("a lower RetireBelow disturbed resident entries")
	}
	c.RetireBelow(4) // the next (higher) retirement drops the re-insert
	if _, ok := c.Probe(key(2, 9)); ok {
		t.Fatal("the next retirement did not drop the re-inserted entry")
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New(8 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(int64(i%7), w%3)
				switch i % 4 {
				case 0:
					c.Add(k, entry(256))
				case 1:
					c.Probe(k)
				case 2:
					if _, _, err := c.GetOrBuild(context.Background(), k, func() (*Entry, error) {
						return entry(256), nil
					}); err != nil {
						t.Errorf("GetOrBuild: %v", err)
					}
				case 3:
					c.RetireBelow(int64(i % 5))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 8<<10 {
		t.Fatalf("budget exceeded: %d bytes resident", st.Bytes)
	}
	if st.Entries < 0 || st.Bytes < 0 {
		t.Fatalf("negative occupancy: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	// Smoke: the stats snapshot is plain data usable in reports.
	c := New(1 << 10)
	c.Add(key(1, 1), entry(100))
	c.Probe(key(1, 1))
	if _, _, err := c.GetOrBuild(context.Background(), key(9, 9), func() (*Entry, error) {
		return entry(100), nil
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	s := fmt.Sprintf("%+v", st)
	if st.Hits != 1 || st.Misses != 1 || s == "" {
		t.Fatalf("unexpected stats %+v", st)
	}
}
