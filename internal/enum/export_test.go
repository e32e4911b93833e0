package enum

import (
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// CountSplit is CountStop with the split point given: mid == 0 sweeps
// once, and Ts < mid <= Te splits there whatever the skyline's size and
// GOMAXPROCS, so tests reach the split on small windows.
//
// tkc:cancellable
func CountSplit(ecs *vct.ECS, s *Scratch, stop func() bool, mid tgraph.TS) (cores, edges int64, cancelled bool) {
	return countSplit(whole(ecs), s, stop, mid)
}

// CountWindowSplit is CountWindowStop with the split point given, as
// CountSplit is CountStop's.
//
// tkc:cancellable
func CountWindowSplit(g *tgraph.Graph, ecs *vct.ECS, w tgraph.Window, s *Scratch, stop func() bool, mid tgraph.TS) (cores, edges int64, cancelled bool) {
	return countSplit(cutTo(g, ecs, w), s, stop, mid)
}

// CountSplitAt is countSplitAt, the split point CountStop chooses.
func CountSplitAt(ecs *vct.ECS) tgraph.TS { return countSplitAt(whole(ecs)) }
