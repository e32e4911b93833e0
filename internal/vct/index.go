package vct

import (
	"sort"

	"temporalkcore/internal/tgraph"
)

// Entry is one label of the vertex core time index: the core time of the
// vertex is CT for every start time from Start until the next entry's Start
// (exclusive). CT == tgraph.InfTime records "in no k-core from here on".
type Entry struct {
	Start tgraph.TS
	CT    tgraph.TS
}

// Index is the Vertex Core Time index (VCT) for one k and one query range.
type Index struct {
	K     int
	Range tgraph.Window

	off     []int32
	entries []Entry
}

// Entries returns the index labels of vertex u in ascending start order.
func (ix *Index) Entries(u tgraph.VID) []Entry {
	return ix.entries[ix.off[u]:ix.off[u+1]]
}

// CoreTime returns CT_ts(u), the earliest end time te such that u is in the
// k-core of the snapshot over [ts, te], or tgraph.InfTime when there is
// none. ts must lie inside the index range.
func (ix *Index) CoreTime(u tgraph.VID, ts tgraph.TS) tgraph.TS {
	ents := ix.Entries(u)
	// Find the last entry with Start <= ts.
	i := sort.Search(len(ents), func(i int) bool { return ents[i].Start > ts }) - 1
	if i < 0 {
		return tgraph.InfTime
	}
	return ents[i].CT
}

// Size returns |VCT|, the total number of index entries.
func (ix *Index) Size() int { return len(ix.entries) }

// ECS is the Edge Core window Skyline of every temporal edge inside the
// query range: the set of minimal core windows (Definition 5), per edge in
// strictly increasing start (and end) order.
type ECS struct {
	K     int
	Range tgraph.Window

	lo, hi tgraph.EID // edge-id range of the query window
	off    []int32    // indexed by eid-lo, len hi-lo+1
	wins   []tgraph.Window
}

// EdgeRange returns the [lo, hi) edge-id range the skyline covers.
func (e *ECS) EdgeRange() (lo, hi tgraph.EID) { return e.lo, e.hi }

// Windows returns the minimal core windows of edge eid (possibly empty).
func (e *ECS) Windows(eid tgraph.EID) []tgraph.Window {
	i := eid - e.lo
	return e.wins[e.off[i]:e.off[i+1]]
}

// Flat returns the skylines as one array: the windows of edge lo+i are
// wins[off[i]:off[i+1]], so a cursor over an edge's windows is a plain
// index. Both slices alias the ECS and must not be modified.
func (e *ECS) Flat() (off []int32, wins []tgraph.Window) { return e.off, e.wins }

// Size returns |ECS|, the total number of minimal core windows.
func (e *ECS) Size() int { return len(e.wins) }
