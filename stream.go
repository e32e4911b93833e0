package temporalkcore

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
)

// WriteTo executes the request and streams every result core to w as
// NDJSON (one JSON object per line, in emission order). Because |R| can
// exceed the graph size by orders of magnitude, results are serialised as
// they are produced and never accumulated; cancelling ctx stops the
// stream after the line being written. Each line holds the core's
// "start" and "end" and its "edges" as [u, v, t] triples, plus a
// "vertices" field under ProjectVertices; ReadCores parses the stream.
func (r *Request) WriteTo(ctx context.Context, w io.Writer) (QueryStats, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	var encErr error
	qs, err := r.run(ctx, func(c Core) bool {
		if err := enc.Encode(coreJSON{Start: c.Start, End: c.End, Edges: edgeJSONs(c.Edges), Vertices: c.Vertices}); err != nil {
			encErr = err
			return false
		}
		return true
	})
	if err != nil {
		// Deliver the complete lines already encoded (partial-delivery
		// contract, matching Collect/RunBatch); the engine error wins
		// over any flush failure.
		bw.Flush()
		return qs, err
	}
	if encErr != nil {
		bw.Flush()
		return qs, fmt.Errorf("temporalkcore: encoding cores: %w", encErr)
	}
	return qs, bw.Flush()
}

// ReadCores parses an NDJSON stream written by Request.WriteTo, invoking
// fn per core. fn may return false to stop early.
func ReadCores(r io.Reader, fn func(Core) bool) error {
	dec := json.NewDecoder(r)
	for {
		var cj coreJSON
		if err := dec.Decode(&cj); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("temporalkcore: decoding cores: %w", err)
		}
		c := Core{Start: cj.Start, End: cj.End, Edges: make([]Edge, len(cj.Edges))}
		for i, e := range cj.Edges {
			c.Edges[i] = Edge{U: e[0], V: e[1], Time: e[2]}
		}
		if !fn(c) {
			return nil
		}
	}
}

// coreJSON is the NDJSON schema: the TTI plus [u, v, t] edge triples.
// Vertices appears only under ProjectVertices, so the default projection's
// golden wire format stays unchanged.
type coreJSON struct {
	Start    int64      `json:"start"`
	End      int64      `json:"end"`
	Edges    [][3]int64 `json:"edges"`
	Vertices []int64    `json:"vertices,omitempty"`
}

func edgeJSONs(edges []Edge) [][3]int64 {
	out := make([][3]int64, len(edges))
	for i, e := range edges {
		out[i] = [3]int64{e.U, e.V, e.Time}
	}
	return out
}
