package temporalkcore

import (
	"fmt"
	"math"
)

// QueryJSON is the wire-format description of a one-shot Request: the JSON
// body a serving layer accepts over the network and compiles into the v2
// builder. Fields mirror the builder verbs — k, an optional inclusive raw
// time window (omitted bounds default to the whole history), a projection,
// an algorithm and an early-stop limit. The zero value of every optional
// field means "builder default", so the minimal useful body is {"k": 3}.
//
// Serving layers may extend the body with transport concerns (epoch
// pinning, deadlines) by embedding QueryJSON in their own request struct;
// the mapping here covers exactly what the engine needs.
type QueryJSON struct {
	K         int    `json:"k"`
	Start     *int64 `json:"start,omitempty"`
	End       *int64 `json:"end,omitempty"`
	Project   string `json:"project,omitempty"`   // "edges" (default), "vertices", "count"
	Algorithm string `json:"algorithm,omitempty"` // "enum" (default), "base", "otcd"
	EarlyStop int    `json:"earlyStop,omitempty"` // stop after this many cores; <= 0 = all
}

// ParseProjection maps a wire projection name to its Projection. The empty
// string is ProjectEdges, the builder default.
func ParseProjection(s string) (Projection, error) {
	switch s {
	case "", "edges":
		return ProjectEdges, nil
	case "vertices":
		return ProjectVertices, nil
	case "count":
		return ProjectCount, nil
	}
	return 0, fmt.Errorf("temporalkcore: unknown projection %q (want edges, vertices or count)", s)
}

// ParseAlgorithm maps a wire algorithm name to its Algorithm. The empty
// string is AlgoEnum, the builder default.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "", "enum":
		return AlgoEnum, nil
	case "base":
		return AlgoEnumBase, nil
	case "otcd":
		return AlgoOTCD, nil
	}
	return 0, fmt.Errorf("temporalkcore: unknown algorithm %q (want enum, base or otcd)", s)
}

// Querier is anything that can start a v2 Request: a live *Graph, a pinned
// Snapshot's Graph, a *ShardedGraph (latest view) or a *ShardedView.
type Querier interface {
	Query(k int) *Request
}

// Request compiles the wire description into a v2 Request against g (a live
// graph or a pinned Snapshot's graph), validating eagerly: builder errors
// that Seq/Collect/WriteTo would normally defer — bad k, an unknown
// projection or algorithm — are returned here, so a serving layer can
// reject a bad request with a structured error before committing to a
// response stream. Window errors that depend on the graph's time span
// (ErrEmptyRange, ErrNoTimestamps) still surface at execution time.
func (q QueryJSON) Request(g *Graph) (*Request, error) { return q.RequestFrom(g) }

// RequestFrom is Request for any Querier — in particular a *ShardedView,
// whose requests run on the view's epoch and report the shards their
// window overlaps. Note a sharded request rejects the Algorithm verb (it
// runs the Enum executor only), so a body naming an algorithm fails
// eagerly here against a sharded source.
func (q QueryJSON) RequestFrom(g Querier) (*Request, error) {
	r := g.Query(q.K)
	start, end := int64(math.MinInt64), int64(math.MaxInt64)
	if q.Start != nil {
		start = *q.Start
	}
	if q.End != nil {
		end = *q.End
	}
	if q.Start != nil || q.End != nil {
		r.Window(start, end)
	}
	proj, err := ParseProjection(q.Project)
	if err != nil {
		return nil, err
	}
	r.Project(proj)
	if q.Algorithm != "" {
		algo, err := ParseAlgorithm(q.Algorithm)
		if err != nil {
			return nil, err
		}
		r.Algorithm(algo)
	}
	if q.EarlyStop > 0 {
		r.EarlyStop(q.EarlyStop)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}
