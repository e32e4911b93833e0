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
