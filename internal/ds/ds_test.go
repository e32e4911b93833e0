package ds_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"temporalkcore/internal/ds"
)

func TestSigToggleInverse(t *testing.T) {
	var s ds.Sig128
	s.Toggle(42)
	if s.Zero() {
		t.Error("signature of {42} is zero")
	}
	s.Toggle(42)
	if !s.Zero() {
		t.Error("toggle twice did not cancel")
	}
}

func TestSigOrderIndependent(t *testing.T) {
	a := ds.SigOf([]int32{1, 2, 3, 100})
	b := ds.SigOf([]int32{100, 3, 2, 1})
	if a != b {
		t.Error("signature depends on order")
	}
	c := ds.SigOf([]int32{1, 2, 3})
	if a == c {
		t.Error("different sets collide")
	}
}

func TestQuickSigIncremental(t *testing.T) {
	f := func(items []int32) bool {
		seen := map[int32]bool{}
		var uniq []int32
		for _, it := range items {
			if !seen[it] {
				seen[it] = true
				uniq = append(uniq, it)
			}
		}
		var inc ds.Sig128
		for _, it := range uniq {
			inc.Toggle(it)
		}
		return inc == ds.SigOf(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSigDistinctSets(t *testing.T) {
	// Random distinct small sets should essentially never collide.
	r := rand.New(rand.NewSource(5))
	seen := map[ds.Sig128][]int32{}
	for i := 0; i < 5000; i++ {
		n := 1 + r.Intn(8)
		set := map[int32]bool{}
		for len(set) < n {
			set[int32(r.Intn(1<<20))] = true
		}
		var items []int32
		for it := range set {
			items = append(items, it)
		}
		sig := ds.SigOf(items)
		if prev, ok := seen[sig]; ok && !sameSet(prev, items) {
			t.Fatalf("collision between %v and %v", prev, items)
		}
		seen[sig] = items
	}
}

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int32]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func TestQueueFIFO(t *testing.T) {
	var q ds.Queue
	for i := int32(0); i < 100; i++ {
		q.Push(i)
	}
	for i := int32(0); i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
	if q.Len() != 0 {
		t.Errorf("len = %d", q.Len())
	}
}

func TestQueueCompaction(t *testing.T) {
	var q ds.Queue
	// Interleave pushes and pops to force compaction.
	next, expect := int32(0), int32(0)
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 99; i++ {
			if got := q.Pop(); got != expect {
				t.Fatalf("pop %d, want %d", got, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != expect {
			t.Fatalf("drain pop %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Errorf("drained %d items, pushed %d", expect, next)
	}
}

func TestQueueReset(t *testing.T) {
	var q ds.Queue
	q.Push(1)
	q.Push(2)
	q.Reset()
	if q.Len() != 0 {
		t.Errorf("len after reset = %d", q.Len())
	}
	q.Push(7)
	if q.Pop() != 7 {
		t.Error("queue broken after reset")
	}
}

func TestMix64NotIdentity(t *testing.T) {
	if ds.Mix64(0) == 0 && ds.Mix64(1) == 1 {
		t.Error("Mix64 looks like identity")
	}
	if ds.Mix64(12345) == ds.Mix64(12346) {
		t.Error("adjacent inputs collide")
	}
}

func TestGrowReusesCapacity(t *testing.T) {
	s := make([]int32, 8, 64)
	g := ds.Grow(s, 32)
	if len(g) != 32 {
		t.Fatalf("len = %d, want 32", len(g))
	}
	if &g[0] != &s[0] {
		t.Error("Grow within capacity reallocated")
	}
	g2 := ds.Grow(g, 128)
	if len(g2) != 128 {
		t.Fatalf("len = %d, want 128", len(g2))
	}
	if cap(g2) < 128 {
		t.Fatalf("cap = %d, want >= 128", cap(g2))
	}
	// Shrinking keeps the backing array.
	g3 := ds.Grow(g2, 4)
	if len(g3) != 4 || &g3[0] != &g2[0] {
		t.Error("Grow shrink reallocated")
	}
	// A small step past the capacity grows by a quarter of it, so the
	// next few small steps fit; a large step grows to exactly n.
	h := ds.Grow(make([]int32, 100), 101)
	if len(h) != 101 || cap(h) != 125 {
		t.Fatalf("len, cap = %d, %d after a small step; want 101, 125", len(h), cap(h))
	}
	if h2 := ds.Grow(h, 125); &h2[0] != &h[0] {
		t.Error("Grow within headroom reallocated")
	}
	if h3 := ds.Grow(h, 1000); len(h3) != 1000 || cap(h3) != 1000 {
		t.Fatalf("len, cap = %d, %d after a large step; want 1000, 1000", len(h3), cap(h3))
	}
}

func TestGrowZeroClears(t *testing.T) {
	s := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	g := ds.GrowZero(s[:8], 5)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("g[%d] = %d after GrowZero, want 0", i, v)
		}
	}
	if &g[0] != &s[0] {
		t.Error("GrowZero within capacity reallocated")
	}
	// Growth path allocates fresh (and therefore zeroed) storage.
	g2 := ds.GrowZero(g, 1000)
	if len(g2) != 1000 {
		t.Fatalf("len = %d, want 1000", len(g2))
	}
	for i, v := range g2 {
		if v != 0 {
			t.Fatalf("g2[%d] = %d, want 0", i, v)
		}
	}
	// A small step past a dirty buffer's capacity grows with Grow's
	// headroom, and the grown buffer is zero, headroom included.
	dirty := make([]int32, 100)
	for i := range dirty {
		dirty[i] = int32(i + 1)
	}
	h := ds.GrowZero(dirty, 101)
	if len(h) != 101 || cap(h) != 125 {
		t.Fatalf("len, cap = %d, %d after a small step; want 101, 125", len(h), cap(h))
	}
	for i, v := range h[:cap(h)] {
		if v != 0 {
			t.Fatalf("grown h[%d] = %d, want 0", i, v)
		}
	}
	// Within the headroom, GrowZero reuses the array and zeroes what
	// the caller dirtied.
	for i := range h {
		h[i] = 7
	}
	h2 := ds.GrowZero(h, 125)
	if &h2[0] != &h[0] {
		t.Error("GrowZero within headroom reallocated")
	}
	for i, v := range h2 {
		if v != 0 {
			t.Fatalf("h2[%d] = %d after GrowZero, want 0", i, v)
		}
	}
}

func TestGrowGenericTypes(t *testing.T) {
	type pair struct{ a, b int64 }
	p := ds.Grow([]pair(nil), 3)
	if len(p) != 3 {
		t.Fatalf("len = %d", len(p))
	}
	b := ds.GrowZero([]bool{true, true}, 2)
	if b[0] || b[1] {
		t.Error("GrowZero left true values")
	}
}
