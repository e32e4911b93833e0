// Package enum enumerates all distinct temporal k-cores of a query time
// range from the edge core window skyline, implementing the paper's
// EnumBase (Algorithm 3) and the optimal Enum / AS-Output pair
// (Algorithms 4 and 5, Sections V-B and V-C). The optimal enumerator keeps
// one slot per edge and a start-time calendar in a pooled Scratch, so
// repeated enumerations allocate nothing once warm. CountStop, an
// extension beyond the paper, returns the number of cores and |R| from
// per-start-time aggregates over the same calendar without emitting any
// core, in time independent of |R|. Those aggregates depend only on the
// windows live at each start time, so at GOMAXPROCS >= 2 CountStop sums
// two sweeps of a large start range, the later one on a helper goroutine.
package enum

import (
	"sort"

	"temporalkcore/internal/tgraph"
)

// Sink consumes enumerated temporal k-cores. Emit is called exactly once
// per distinct temporal k-core with the core's tightest time interval and
// its temporal edges. The eids slice is reused between calls: retain a copy,
// never the slice itself. Returning false stops the enumeration early.
type Sink interface {
	Emit(tti tgraph.Window, eids []tgraph.EID) bool
}

// CountSink counts results without retaining them. The paper's |R| is
// EdgeTotal: the summed number of edges over all resulting cores.
type CountSink struct {
	Cores     int64
	EdgeTotal int64
}

// Emit implements Sink.
func (s *CountSink) Emit(_ tgraph.Window, eids []tgraph.EID) bool {
	s.Cores++
	s.EdgeTotal += int64(len(eids))
	return true
}

// Core is one materialised temporal k-core.
type Core struct {
	TTI   tgraph.Window
	Edges []tgraph.EID // ascending edge ids (and therefore ascending time)
}

// CollectSink materialises every result.
type CollectSink struct {
	Cores []Core
}

// Emit implements Sink.
func (s *CollectSink) Emit(tti tgraph.Window, eids []tgraph.EID) bool {
	cp := make([]tgraph.EID, len(eids))
	copy(cp, eids)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	s.Cores = append(s.Cores, Core{TTI: tti, Edges: cp})
	return true
}

// LimitSink forwards to Inner until Max cores have been emitted.
type LimitSink struct {
	Inner Sink
	Max   int64
	seen  int64
}

// Emit implements Sink.
func (s *LimitSink) Emit(tti tgraph.Window, eids []tgraph.EID) bool {
	if s.seen >= s.Max {
		return false
	}
	s.seen++
	if !s.Inner.Emit(tti, eids) {
		return false
	}
	return s.seen < s.Max
}

// VertexSetSink collects the distinct vertex sets of the enumerated cores,
// the compact representation the paper's future-work section motivates.
// Vertex sets of different cores often coincide; they are deduplicated.
type VertexSetSink struct {
	g    *tgraph.Graph
	Sets [][]tgraph.VID
	seen map[string]struct{}
	buf  []tgraph.VID
	mark []bool
}

// NewVertexSetSink returns a VertexSetSink for g.
func NewVertexSetSink(g *tgraph.Graph) *VertexSetSink {
	return &VertexSetSink{g: g, seen: make(map[string]struct{}), mark: make([]bool, g.NumVertices())}
}

// Emit implements Sink.
func (s *VertexSetSink) Emit(_ tgraph.Window, eids []tgraph.EID) bool {
	s.buf = s.buf[:0]
	for _, e := range eids {
		te := s.g.Edge(e)
		for _, v := range [2]tgraph.VID{te.U, te.V} {
			if !s.mark[v] {
				s.mark[v] = true
				s.buf = append(s.buf, v)
			}
		}
	}
	for _, v := range s.buf {
		s.mark[v] = false
	}
	sort.Slice(s.buf, func(i, j int) bool { return s.buf[i] < s.buf[j] })
	key := make([]byte, 0, len(s.buf)*4)
	for _, v := range s.buf {
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	if _, ok := s.seen[string(key)]; ok {
		return true
	}
	s.seen[string(key)] = struct{}{}
	cp := make([]tgraph.VID, len(s.buf))
	copy(cp, s.buf)
	s.Sets = append(s.Sets, cp)
	return true
}
