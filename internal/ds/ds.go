// Package ds provides the small data structures shared by the temporal
// k-core algorithms: order-independent set signatures for deduplicating edge
// sets, and an int32 FIFO queue used by peeling cascades.
package ds

// Mix64 is the splitmix64 finaliser, a cheap high-quality 64-bit mixer.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix64b is a second, independent mixer (murmur3 finaliser with different
// stream constant) so signatures are effectively 128 bits wide.
func mix64b(x uint64) uint64 {
	x ^= 0x632be59bd9b4e019
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Sig128 is an order-independent 128-bit signature of a set of int32 items.
// Items are combined with XOR of two independent mixes, so the signature of
// a set can be maintained incrementally under insertion and deletion (XOR is
// its own inverse). Collisions between distinct sets are astronomically
// unlikely (~2^-128 per pair); exact comparisons are used in tests.
type Sig128 struct {
	Lo, Hi uint64
}

// Toggle adds item to the signature if absent, removes it if present.
func (s *Sig128) Toggle(item int32) {
	x := uint64(uint32(item))
	s.Lo ^= Mix64(x)
	s.Hi ^= mix64b(x)
}

// Zero reports whether the signature is the empty-set signature.
func (s Sig128) Zero() bool { return s.Lo == 0 && s.Hi == 0 }

// SigOf computes the signature of a set given as a slice (items must be
// distinct).
func SigOf(items []int32) Sig128 {
	var s Sig128
	for _, it := range items {
		s.Toggle(it)
	}
	return s
}

// Grow returns s with length n, reusing capacity when possible. The
// returned slice contents are unspecified; callers must fully overwrite
// them. It is the building block of the reusable scratch types that keep
// the repeated-query hot paths allocation-free. A grown buffer gets a
// quarter of headroom, so one that a growing graph or a widening window
// asks for a little more each time settles instead of reallocating on
// every call.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, max(n, cap(s)+cap(s)/4))
}

// GrowZero returns s with length n and every element zeroed. It grows
// with the same headroom as Grow.
func GrowZero[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n, max(n, cap(s)+cap(s)/4))
}

// Queue is a simple FIFO of int32 values backed by a growable ring-free
// slice: peeling cascades push each element at most once, so a head index
// with periodic compaction is enough and avoids modulo arithmetic.
type Queue struct {
	buf  []int32
	head int
}

// Push appends v.
func (q *Queue) Push(v int32) { q.buf = append(q.buf, v) }

// Pop removes and returns the oldest element. It panics when empty.
func (q *Queue) Pop() int32 {
	v := q.buf[q.head]
	q.head++
	if q.head > 1024 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// Len returns the number of queued elements.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Reset empties the queue, retaining capacity.
func (q *Queue) Reset() {
	q.buf = q.buf[:0]
	q.head = 0
}
