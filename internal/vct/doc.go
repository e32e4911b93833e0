// Package vct computes the Vertex Core Time index (VCT) and the Edge Core
// window Skyline (ECS) of a temporal graph for a fixed k and query range
// [Ts, Te], reproducing Section IV of "Accelerating K-Core Computation in
// Temporal Graphs" (EDBT 2026) and the single-k slice of the PHC index of
// Yu et al., "On Querying Historical K-Cores" (VLDB 2021, reference [13]).
//
// # Core-time fixed point
//
// For a fixed start time ts, define over the snapshot universe [ts, Te]
//
//	F(CT)(u) = k-th smallest over distinct neighbours v of u of
//	           max(CT(v), firstTime(u, v, >= ts))
//
// where firstTime is the earliest interaction of the pair at or after ts
// (contributions later than Te, and neighbours with CT = ∞, are discarded;
// fewer than k contributions means ∞). The true core-time vector CT_ts is
// the least fixed point of F above the lower bound L(u) = k-th smallest
// firstTime of u's pairs:
//
//   - CT_ts is a fixed point: u enters the k-core of [ts, te] exactly when k
//     of its neighbours are simultaneously present (edge seen by te) and in
//     the core (their own core time <= te); conversely if k neighbours
//     satisfy that at te, then core(ts, te) ∪ {u} has min degree >= k, so u
//     is in the k-core by maximality.
//   - Any fixed point X >= L satisfies X >= CT_ts: for S = {u : X(u) <= te},
//     every member has k neighbours in S with edges in [ts, te], so S is
//     contained in the k-core of [ts, te].
//   - Chaotic worklist iteration that only ever raises values converges to
//     the least fixed point >= L, which by the two points above equals CT_ts.
//
// Raising ts from s to s+1 only changes firstTime for pairs interacting at
// exactly s, and core times are monotone in ts, so values keep only rising
// across the whole run. A vertex u can only become unsettled when one of
// its contributions crosses CT(u): a contribution above CT(u) is not among
// the k smallest, and one that moves but stays <= CT(u) cannot lift the
// k-th smallest above it. Even a crossing leaves u settled while k
// contributions remain at or below CT(u), so each vertex carries its
// support: the count of contributions at or below CT(u). Evaluating u sets
// it exactly (k plus the ties of the k-th smallest, counted in the same
// selection pass), and each crossing lowers it by one. Contributions only
// rise and a raise of CT(u) only adds support, so the count never exceeds
// the truth, and while it is at least k, F(CT)(u) <= CT(u) still holds. An
// expiring edge or a raise therefore requeues a vertex only when a
// crossing drops its support below k, and every requeue it skips is one
// whose evaluation would not raise. In a plain build the count stays
// exact, so past the first start time's initial pushes every pop raises a
// value. Each pop scans u's neighbours in the query window, not its whole
// history, and drops those that can never contribute again (CT = ∞, or no
// interaction left in the window). This matches the paper's
// O(|VCT| · deg_avg) bound, with deg the degree in the window's
// projection: pops are the |VCT| raises plus the transient intermediate
// raises of a cascade. The patcher pushes the vertices it unpins or
// tightens directly, and never evaluates the vertices it pins: their
// support keeps the zero each build starts from, so their first crossing
// once unpinned requeues them.
//
// # Edge skylines (Algorithm 2)
//
// The core time of a temporal edge e = (u, v, t) for start s <= t is
// max(CT_s(u), CT_s(v), t) (Lemma 1). Whenever the edge core time rises
// between s and s+1, [s, CT_s(e)] is a minimal core window (Lemma 2), and
// the last finite value is flushed when the edge expires at s = t. The
// emitted windows per edge have strictly increasing starts and ends: they
// are exactly the edge's core-window skyline (Definition 5).
//
// After a transition, only the incident edges of vertices whose core time
// rose can change, and of those only the ones with s < t < CT(u): for
// t >= CT(u), Lemma 1 gives max(CT(u), CT(v), t) = max(CT(v), t), which was
// already the edge's value unless CT(v) rose too, and then v's own scan
// covers the edge. So the update of a raised vertex scans its alive
// incident edges only up to min(CT(u), Te+1).
//
// # Start-time split
//
// The core times at start ts are the least fixed point over [ts, Te]
// alone (the first section), so the build of [mid, Te] computes exactly
// the serial build's core times from mid on, and edges older than mid
// never enter it. A build may therefore split at a start time mid,
// Ts < mid <= Te: the caller's goroutine sweeps the starts [Ts, mid−1]
// over the whole window, and a helper goroutine runs the ordinary build
// of [mid, Te] on a second Scratch kept with the caller's. A stitch then
// appends the helper's records after the caller's, emitting what the
// serial build's transition from mid−1 to mid would have:
//
//   - an index entry {mid, CT_mid(u)} only where CT_mid(u) differs from
//     the caller's CT_{mid−1}(u), taken from the helper's first records,
//     and {mid, ∞} where a finite value becomes ∞ (the helper records no
//     infinite value at its first start);
//   - the window [mid−1, ect] of each edge alive at mid−1 with a finite
//     edge core time ect that expires at mid−1 or whose core time, by
//     Lemma 1 from the core times at mid, rises at mid;
//   - the helper's skyline windows and later index entries unchanged.
//
// Per vertex and per edge the records stay in ascending start order, which
// is all the output assembly relies on, so the Index and ECS are the
// serial build's byte for byte.
//
// A build splits when GOMAXPROCS >= 2 and its window holds at least
// minSplitEdges edges, whatever else the process runs, so its two parts
// then share the CPUs with other work. That costs nothing measurable: on
// a batch whose two workers already hold both CPUs of a 2-CPU host
// (BenchmarkQueryBatch/parallel=2), splitting every such build read
// faster than splitting only beside an idle CPU (a process-wide count of
// running parts) in 6 of 12 and 8 of 18 alternating rounds, with medians
// 1-3% apart, inside either's spread. The split point is the time of
// the edge at 2/5 of the window's edges: the caller's part sweeps from
// Ts over the whole window, and the helper settles its first fixed point
// from scratch, so the parts take equally long there on the paper-scale
// CM replica's Figure 6 windows (k = 9: 6.3 and 5.9 ms at 2/5 of the
// edges, 7.6 and 5.0 ms at 1/2). On that replica at k = 9 a split build
// broke even at 500-750 window edges (0.91x of serial at 1,000, 0.65x at
// 3,000; at k = 3 it broke even below 500). The patcher stays serial;
// its fallback to a full build may split.
//
// # Scratch-pool design
//
// The builder's entire working state — core-time, support and record
// vectors, the window projection, the worklist with its membership bits,
// the k-slot selection buffer and both record arenas — lives in a Scratch, a
// size-adaptive bundle cycled through a sync.Pool. Build borrows a pooled
// Scratch and copies its outputs; BuildScratch runs on a caller-owned
// Scratch and returns Index/ECS views aliasing its arenas, making a warm
// repeated build allocation-free, split or not: the helper's Scratch and
// its bound start function stay with the caller's. Per-query set-up is
// one pass over the window's edges that gives every pair interacting in
// the window its first time and time-list position, and every vertex a
// window-local neighbour list: O(edges in window + |V|), with a per-pair
// lookup that is a sparse set and so is never cleared. F(CT) evaluation selects the k-th smallest
// contribution with a bounded insertion buffer instead of sorting whole
// neighbourhoods. Workers that run queries concurrently each hold their
// own Scratch (see core.QueryBatch).
package vct
