// Package shard partitions the temporal graph's time axis into contiguous
// time-range shards, routes a window query to the spans of the shards it
// overlaps, and resolves each span's CoreTime tables (Resolve). The caller
// enumerates the spans one after another in its own goroutine; the
// package starts none.
//
// The append-only frontier makes the partition trivial to maintain: edges
// only ever arrive at (or after) the newest timestamp, so every shard but
// the last — the frontier — is sealed and immutable. A seal freezes the
// frontier's range at a cut one rank below the current maximum timestamp
// (Append may still add edges AT the maximum, so the cut rank itself can
// never change once sealed) and opens a new frontier above it.
//
// Queries decompose exactly along the start axis: the enumeration emits
// every distinct temporal k-core in ascending tightest-start order, and a
// core whose tightest start falls in shard i's range is fully determined
// by the edges in [start, queryEnd] — a suffix window the shard's span
// computes on the shared spine graph. Each overlapping shard therefore
// contributes the cores whose tightest start lands in its slice, boundary
// cores (those whose window crosses the cut) included: the shard's cached
// local CoreTime index vouches for in-shard core times, and a
// vct.PatchScratch boundary re-settle extends exactly the vertices whose
// core windows cross the cut. Enumerating the spans in shard order
// reproduces the unsharded enumeration byte for byte.
package shard

import (
	"fmt"

	"temporalkcore/internal/tgraph"
)

// Cut records one sealed shard boundary. A sealed shard's range never
// changes: RawEnd is one raw timestamp below the frontier maximum at seal
// time, so by Append's non-decreasing-time contract no later edge can land
// at or below it, and End (its compressed rank) is stable across every
// later epoch of the same lineage.
type Cut struct {
	RawEnd int64     // inclusive raw-time upper bound of the sealed shard
	End    tgraph.TS // rank of RawEnd on the spine graph
	Seq    int64     // spine mutation sequence at seal time
}

// Directory is the immutable routing table of a sharded graph: the ordered
// sealed cuts, with the open frontier shard implicitly covering everything
// above the last cut. A Directory is never mutated — Seal returns a new
// one — so readers may hold a directory while the writer seals.
//
// tkc:frozensource
type Directory struct {
	cuts []Cut
}

// NewDirectory builds a directory from ascending sealed cuts. The slice is
// copied.
func NewDirectory(cuts []Cut) (*Directory, error) {
	d := &Directory{cuts: append([]Cut(nil), cuts...)}
	for i := 1; i < len(d.cuts); i++ {
		if d.cuts[i].RawEnd <= d.cuts[i-1].RawEnd || d.cuts[i].End <= d.cuts[i-1].End {
			return nil, fmt.Errorf("shard: cuts not ascending at %d (%d then %d)",
				i, d.cuts[i-1].RawEnd, d.cuts[i].RawEnd)
		}
	}
	return d, nil
}

// Seal returns a new directory with one more sealed shard. The receiver is
// unchanged.
func (d *Directory) Seal(c Cut) (*Directory, error) {
	cuts := make([]Cut, len(d.cuts)+1)
	copy(cuts, d.cuts)
	cuts[len(d.cuts)] = c
	return NewDirectory(cuts)
}

// NumSealed returns the number of sealed shards.
func (d *Directory) NumSealed() int { return len(d.cuts) }

// NumShards returns the total shard count: every sealed shard plus the
// open frontier.
func (d *Directory) NumShards() int { return len(d.cuts) + 1 }

// Cuts returns the sealed cuts in order. The caller must not mutate the
// slice.
func (d *Directory) Cuts() []Cut { return d.cuts }

// start returns the first rank of shard i (0-based).
func (d *Directory) start(i int) tgraph.TS {
	if i == 0 {
		return 1
	}
	return d.cuts[i-1].End + 1
}

// Span is one shard's slice of a scatter-gather query: the shard emits
// exactly the cores whose tightest start falls in [Task.Start, LastStart],
// computed over the suffix window Task on the spine graph.
type Span struct {
	Shard  int  // 0-based shard id (== NumSealed() for the frontier)
	Sealed bool // false only for the frontier span

	// Task is the shard's compute window: [max(query start, shard start),
	// query end]. Core windows may extend past the shard's cut — that is
	// the boundary-stitch case — so the task window always runs to the
	// query end.
	Task tgraph.Window

	// LastStart bounds the emission: only cores with tightest start at
	// most LastStart belong to this shard (min of the query end and the
	// shard's cut rank).
	LastStart tgraph.TS

	// Local is the sealed shard's full local range [shard start, cut], the
	// window its cached CoreTime index covers. Zero for the frontier.
	Local tgraph.Window

	// Seq is the sealed shard's seal-time mutation sequence (the Shard
	// cache key namespace). Zero for the frontier.
	Seq int64
}

// Spans routes a query window to the shards whose range overlaps it, in
// ascending time order. Concatenating the spans' emissions in this order
// yields the unsharded enumeration order: per-span output ascends by
// tightest start, and the spans' start slices are disjoint, adjacent and
// ascending.
func (d *Directory) Spans(w tgraph.Window) []Span {
	spans := make([]Span, 0, len(d.cuts)+1)
	for i, c := range d.cuts {
		lo := d.start(i)
		if c.End < w.Start || lo > w.End {
			continue
		}
		start := lo
		if w.Start > start {
			start = w.Start
		}
		last := c.End
		if w.End < last {
			last = w.End
		}
		spans = append(spans, Span{
			Shard:     i,
			Sealed:    true,
			Task:      tgraph.Window{Start: start, End: w.End},
			LastStart: last,
			Local:     tgraph.Window{Start: lo, End: c.End},
			Seq:       c.Seq,
		})
	}
	if lo := d.start(len(d.cuts)); lo <= w.End {
		start := lo
		if w.Start > start {
			start = w.Start
		}
		spans = append(spans, Span{
			Shard:     len(d.cuts),
			Task:      tgraph.Window{Start: start, End: w.End},
			LastStart: w.End,
		})
	}
	return spans
}
