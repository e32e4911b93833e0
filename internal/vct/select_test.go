package vct

import (
	"math/rand"
	"slices"
	"testing"

	"temporalkcore/internal/tgraph"
)

// evalFixture evaluates vertex 0 of a star whose leaves contribute vals,
// on a builder shared across calls, so state one eval leaves behind would
// show in the next. Each contribution max(CT(v), firstTime) is split at
// random between the leaf's core time and the pair's first time.
type evalFixture struct {
	b builder
	r *rand.Rand
}

func newEvalFixture(seed int64) *evalFixture {
	return &evalFixture{b: builder{Scratch: &Scratch{}}, r: rand.New(rand.NewSource(seed))}
}

func (f *evalFixture) eval(k int, vals []tgraph.TS) (tgraph.TS, int32) {
	s := f.b.Scratch
	n := len(vals)
	s.ct = append(s.ct[:0], 0)
	s.ft = s.ft[:0]
	s.nbrs = s.nbrs[:0]
	for i, v := range vals {
		other := 1 + tgraph.TS(f.r.Intn(int(v)))
		if f.r.Intn(2) == 0 {
			s.ct = append(s.ct, v)
			s.ft = append(s.ft, other)
		} else {
			s.ct = append(s.ct, other)
			s.ft = append(s.ft, v)
		}
		s.nbrs = append(s.nbrs, winNbr{v: tgraph.VID(i + 1), pair: int32(i)})
	}
	s.nbrOff = append(s.nbrOff[:0], 0, int32(n))
	s.nbrEnd = append(s.nbrEnd[:0], int32(n))
	f.b.k = k
	return f.b.eval(0)
}

// sortedKth is the oracle: the k-th smallest of vals and how many values
// are at or below it, or (∞, 0) for fewer than k values.
func sortedKth(k int, vals []tgraph.TS) (tgraph.TS, int32) {
	if len(vals) < k {
		return inf, 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	kth := s[k-1]
	n := int32(0)
	for _, v := range s {
		if v <= kth {
			n++
		}
	}
	return kth, n
}

// TestEvalSelectionCountsTies checks eval's selection — the k-th smallest
// contribution and the number of contributions at or below it, which seeds
// the vertex's support — against a sort. The multisets are tie-heavy, so
// every way a value can join, leave or tie the k-slot buffer occurs.
func TestEvalSelectionCountsTies(t *testing.T) {
	cases := []struct {
		k    int
		vals []tgraph.TS
		kth  tgraph.TS
		n    int32
	}{
		{1, nil, inf, 0},
		{3, []tgraph.TS{4, 2}, inf, 0},
		{1, []tgraph.TS{3, 3, 3}, 3, 3},
		{2, []tgraph.TS{4, 4, 2}, 4, 3},          // the eviction keeps the k-th: its old value stays a tie
		{2, []tgraph.TS{4, 4, 4, 2}, 4, 4},       // ... after a tie was counted
		{2, []tgraph.TS{4, 3, 4, 2}, 3, 2},       // the eviction lowers the k-th: ties reset
		{3, []tgraph.TS{5, 5, 5, 5, 1, 1}, 5, 6}, // two evictions that keep the k-th
		{3, []tgraph.TS{5, 5, 5, 1, 1, 1}, 1, 3}, // the last eviction lowers it
		{4, []tgraph.TS{2, 2, 9, 9, 9, 2}, 9, 6},
	}
	f := newEvalFixture(1)
	for _, c := range cases {
		kth, n := f.eval(c.k, c.vals)
		if kth != c.kth || n != c.n {
			t.Errorf("k=%d %v: got (%d, %d), want (%d, %d)", c.k, c.vals, kth, n, c.kth, c.n)
		}
	}

	r := rand.New(rand.NewSource(2))
	times := []tgraph.TS{2, 3, 5, 8}
	for trial := 0; trial < 20000; trial++ {
		k := 1 + r.Intn(5)
		vals := make([]tgraph.TS, r.Intn(13))
		for i := range vals {
			vals[i] = times[r.Intn(len(times))]
		}
		kth, n := f.eval(k, vals)
		wantKth, wantN := sortedKth(k, vals)
		if kth != wantKth || n != wantN {
			t.Fatalf("k=%d %v: got (%d, %d), want (%d, %d)", k, vals, kth, n, wantKth, wantN)
		}
	}
}
