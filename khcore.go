package temporalkcore

import (
	"context"
	"time"

	"temporalkcore/internal/khcore"
	"temporalkcore/internal/tgraph"
)

// runSnapshot executes a Snapshot(h) request: the single (k, h)-core of
// the snapshot over the window, emitted as one Core (or none when empty).
func (r *Request) runSnapshot(ctx context.Context, qs *QueryStats, proj Projection, fn func(Core) bool) error {
	w, err := r.g.window(r.start, r.end)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	began := time.Now()
	p := khcore.NewPeeler(r.g.g)
	var vids []tgraph.VID
	var eids []tgraph.EID
	if proj == ProjectVertices {
		inCore, n := p.CoreOfWindow(r.k, r.h, w)
		vids = make([]tgraph.VID, 0, n)
		for v, in := range inCore {
			if in {
				vids = append(vids, tgraph.VID(v))
			}
		}
	} else {
		eids = p.CoreEdges(r.k, r.h, w, nil)
	}
	emitSnapshot(qs, proj, fn, r.g.g, w, vids, eids)
	qs.EnumTime = time.Since(began)
	return nil
}

// KHCore returns the members of the (k, h)-core of the snapshot over the
// raw range [start, end]: the maximal subgraph in which every vertex has
// at least k neighbours with at least h temporal interactions each inside
// the range. It implements the related temporal cohesion model of Wu et
// al. (IEEE BigData 2015), surveyed in Section III-B of the reproduced
// paper; (k, 1)-cores coincide with ordinary snapshot k-cores.
//
// Deprecated: use the v2 builder, which adds context cancellation and
// projections: g.Query(k).Window(start, end).Snapshot(h).First(ctx).
// Since v2 the returned labels are sorted ascending (pre-v2 they followed
// internal vertex-id order).
//
// tkc:allow-background: deprecated v1 shim; the v2 builder threads ctx
func (g *Graph) KHCore(k, h int, start, end int64) ([]int64, error) {
	c, ok, err := g.Query(k).Window(start, end).Snapshot(h).Project(ProjectVertices).First(context.Background())
	if err != nil {
		return nil, err
	}
	if !ok {
		return []int64{}, nil
	}
	return c.Vertices, nil
}

// KHCoreEdges returns the temporal edges of the (k, h)-core over the raw
// range [start, end]; see KHCore.
//
// Deprecated: use the v2 builder:
// g.Query(k).Window(start, end).Snapshot(h).First(ctx).
//
// tkc:allow-background: deprecated v1 shim; the v2 builder threads ctx
func (g *Graph) KHCoreEdges(k, h int, start, end int64) ([]Edge, error) {
	c, ok, err := g.Query(k).Window(start, end).Snapshot(h).First(context.Background())
	if err != nil {
		return nil, err
	}
	if !ok {
		return []Edge{}, nil
	}
	return c.Edges, nil
}
