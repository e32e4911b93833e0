package temporalkcore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	tkc "temporalkcore"
)

// TestParseProjectionAlgorithm locks the wire-name tables: every name the
// serving layer documents maps to its builder constant, the empty string is
// the builder default, and anything else is a structured error naming the
// valid choices.
func TestParseProjectionAlgorithm(t *testing.T) {
	projCases := []struct {
		in   string
		want tkc.Projection
	}{
		{"", tkc.ProjectEdges},
		{"edges", tkc.ProjectEdges},
		{"vertices", tkc.ProjectVertices},
		{"count", tkc.ProjectCount},
	}
	for _, c := range projCases {
		got, err := tkc.ParseProjection(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseProjection(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
		}
	}
	if _, err := tkc.ParseProjection("triangles"); err == nil || !strings.Contains(err.Error(), "triangles") {
		t.Errorf("ParseProjection(triangles) error = %v; want error naming the input", err)
	}

	algoCases := []struct {
		in   string
		want tkc.Algorithm
	}{
		{"", tkc.AlgoEnum},
		{"enum", tkc.AlgoEnum},
		{"base", tkc.AlgoEnumBase},
		{"otcd", tkc.AlgoOTCD},
	}
	for _, c := range algoCases {
		got, err := tkc.ParseAlgorithm(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
		}
	}
	if _, err := tkc.ParseAlgorithm("quantum"); err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("ParseAlgorithm(quantum) error = %v; want error naming the input", err)
	}
}

// TestQueryJSONRequest locks the wire struct's compilation onto the v2
// builder: each body compiles to the same results as the equivalent
// hand-built Request, and invalid bodies fail eagerly instead of at
// stream time.
func TestQueryJSONRequest(t *testing.T) {
	g := reqGraph(t, 7, 40, 400)
	ctx := context.Background()
	lo, hi := g.TimeSpan()
	mid := lo + (hi-lo)/2

	run := func(t *testing.T, q tkc.QueryJSON, want *tkc.Request) {
		t.Helper()
		r, err := q.Request(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := want.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		coresEqual(t, "wire vs builder", got, ref)
	}

	t.Run("minimal body is the builder default", func(t *testing.T) {
		run(t, tkc.QueryJSON{K: 2}, g.Query(2))
	})
	t.Run("window bounds", func(t *testing.T) {
		run(t, tkc.QueryJSON{K: 2, Start: &lo, End: &mid}, g.Query(2).Window(lo, mid))
	})
	t.Run("omitted start defaults to history begin", func(t *testing.T) {
		run(t, tkc.QueryJSON{K: 2, End: &mid}, g.Query(2).Window(lo, mid))
	})
	t.Run("projection and algorithm", func(t *testing.T) {
		run(t, tkc.QueryJSON{K: 2, Project: "vertices", Algorithm: "base"},
			g.Query(2).Project(tkc.ProjectVertices).Algorithm(tkc.AlgoEnumBase))
	})
	t.Run("count with early stop", func(t *testing.T) {
		run(t, tkc.QueryJSON{K: 2, Project: "count", EarlyStop: 3},
			g.Query(2).Project(tkc.ProjectCount).EarlyStop(3))
	})

	bad := []tkc.QueryJSON{
		{K: 0},
		{K: -4},
		{K: 2, Project: "triangles"},
		{K: 2, Algorithm: "quantum"},
	}
	for _, q := range bad {
		if r, err := q.Request(g); err == nil {
			t.Errorf("Request(%+v) = %v, nil; want eager validation error", q, r)
		}
	}
}

// servedQuery is the serving layer's query body: the wire QueryJSON plus
// transport fields (epoch pin, deadline) that never reach RequestFrom.
type servedQuery struct {
	tkc.QueryJSON
	Epoch      *int64 `json:"epoch,omitempty"`
	DeadlineMS int64  `json:"deadlineMs,omitempty"`
}

// decodeServed decodes one query body the way the HTTP query handler
// does: a single JSON value with unknown fields rejected.
func decodeServed(body []byte) (servedQuery, bool) {
	var q servedQuery
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return q, dec.Decode(&q) == nil
}

// countFacts is the deterministic part of a count's statistics: timings
// and cache outcomes differ between executions of the same request.
func countFacts(qs tkc.QueryStats) [6]int64 {
	return [6]int64{qs.Cores, qs.Edges, int64(qs.VCTSize), int64(qs.ECSSize), int64(qs.Shards), int64(qs.Patched)}
}

// FuzzQueryJSON drives arbitrary bytes through the serving layer's body
// decoding and QueryJSON.RequestFrom, the one place untrusted bytes become
// a Request, against a small graph and a sharded view of it. Nothing may
// panic; an accepted body must run Count, and the body marshalled and
// decoded again must compile to a request with the same outcome.
func FuzzQueryJSON(f *testing.F) {
	g, err := tkc.NewGraph(randomEdges(5, 12, 150, 20))
	if err != nil {
		f.Fatal(err)
	}
	sg, err := tkc.ShardGraph(g, tkc.ShardOptions{Shards: 3})
	if err != nil {
		f.Fatal(err)
	}
	defer sg.Close()
	sources := []struct {
		name string
		src  tkc.Querier
	}{{"graph", g}, {"sharded", sg.Latest()}}

	// The query bodies of the serving layer's tests.
	for _, body := range []string{
		`{"k":2}`, `{"k":0}`, `{"k":-4}`, `{"k": `,
		`{"k":2,"start":10,"end":14}`,
		`{"k":2,"start":10,"end":14,"project":"vertices"}`,
		`{"k":2,"start":3,"end":17,"project":"count"}`,
		`{"k":3,"start":1,"end":20,"project":"count","earlyStop":1}`,
		`{"k":2,"project":"vertices"}`, `{"k":3,"project":"vertices"}`,
		`{"k":2,"project":"count"}`, `{"k":3,"project":"count"}`,
		`{"k":2,"project":"everything"}`,
		`{"k":2,"algorithm":"base"}`, `{"k":2,"algorithm":"otcd"}`,
		`{"k":2,"algorithm":"magic"}`,
		`{"k":2,"earlyStop":2}`, `{"k":2,"larlyStop":5}`,
		`{"k":2,"epoch":999}`, `{"k":2,"project":"vertices","epoch":0}`,
		`{"k":3,"project":"count","deadlineMs":1}`,
	} {
		f.Add([]byte(body))
	}

	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		q, ok := decodeServed(body)
		if !ok {
			return
		}
		again, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal %+v: %v", q, err)
		}
		q2, ok := decodeServed(again)
		if !ok {
			t.Fatalf("re-encoded body %s rejected", again)
		}
		for _, s := range sources {
			r, err := q.RequestFrom(s.src)
			r2, err2 := q2.RequestFrom(s.src)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("%s: %s compiles with %v, re-encoded %s with %v", s.name, body, err, again, err2)
			}
			if err != nil {
				continue
			}
			qs, err := r.Count(ctx)
			qs2, err2 := r2.Count(ctx)
			if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
				t.Fatalf("%s: %s counts with %v, re-encoded %s with %v", s.name, body, err, again, err2)
			}
			if countFacts(qs) != countFacts(qs2) {
				t.Fatalf("%s: %s counts %+v, re-encoded %s %+v", s.name, body, qs, again, qs2)
			}
		}
	})
}
