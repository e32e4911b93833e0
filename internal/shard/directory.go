// Package shard keeps the time-range partition of a sharded temporal
// graph: the ordered sealed cuts of its timeline, with the open frontier
// shard above the last one. It is a storage concern only. Queries run on
// the whole graph's epoch through the unsharded executor; the directory
// tells the storage layer which cuts to record in its manifest and tells
// a query how many shards its window overlaps.
//
// The append-only frontier makes the partition trivial to maintain: edges
// only ever arrive at (or after) the newest timestamp, so every shard but
// the last — the frontier — is sealed and immutable. A seal freezes the
// frontier's range at a cut one rank below the current maximum timestamp
// (Append may still add edges AT the maximum, so the cut rank itself can
// never change once sealed) and opens a new frontier above it.
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

// Directory is the immutable partition table of a sharded graph: the ordered
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

// Overlaps returns how many shards' ranges overlap the window w: the
// sealed shards whose [start, cut] range meets w, plus the frontier when w
// reaches above the last cut.
func (d *Directory) Overlaps(w tgraph.Window) int {
	n := 0
	for i, c := range d.cuts {
		if c.End >= w.Start && d.start(i) <= w.End {
			n++
		}
	}
	if d.start(len(d.cuts)) <= w.End {
		n++
	}
	return n
}
