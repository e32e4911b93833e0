package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/gen"
	"temporalkcore/internal/serve"
	"temporalkcore/internal/tgraph"
)

// genEdges synthesises a deterministic seeded graph (the hub-core +
// community-burst model every differential suite uses) and returns its raw
// edges in time order, ready for NewGraph or for streaming appends.
func genEdges(t testing.TB, seed int64, n int) []tkc.Edge {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cfg := gen.Config{
		Name:        "servetest",
		Seed:        seed,
		Vertices:    30 + r.Intn(40),
		Edges:       n,
		Timestamps:  n/6 + 10,
		HubEdgeProb: 0.25 + 0.2*r.Float64(),
		MixEdgeProb: 0.3,
		Burstiness:  0.3,
		Communities: 2,
	}
	ig, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: gen: %v", seed, err)
	}
	edges := make([]tkc.Edge, ig.NumEdges())
	for i := range edges {
		te := ig.Edge(tgraph.EID(i))
		edges[i] = tkc.Edge{U: ig.Label(te.U), V: ig.Label(te.V), Time: ig.RawTime(te.T)}
	}
	return edges
}

// newTestServer mounts a serve.Server on an httptest server.
func newTestServer(t testing.TB, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// trailerJSON is the decoded last line of a /v1/query response.
type trailerJSON struct {
	Stats *struct {
		Cores       int64 `json:"cores"`
		ResultEdges int64 `json:"resultEdges"`
		Epoch       int64 `json:"epoch"`
		CacheHit    bool  `json:"cacheHit"`
		Shards      int   `json:"shards"`
	} `json:"stats"`
	Error string `json:"error"`
	Epoch int64  `json:"epoch"`
}

// postQuery posts a raw JSON body to /v1/query and splits the NDJSON
// response into core lines and the decoded trailer.
func postQuery(t testing.TB, base, body string) (status int, hdr http.Header, coreLines []byte, tr trailerJSON) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading query response: %v", err)
	}
	status = resp.StatusCode
	hdr = resp.Header
	if status != http.StatusOK {
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("status %d with undecodable body %q: %v", status, raw, err)
		}
		return status, hdr, nil, tr
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		t.Fatalf("200 response with empty body")
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &tr); err != nil || (tr.Stats == nil && tr.Error == "") {
		t.Fatalf("response has no stats/error trailer; last line %q (err %v)", last, err)
	}
	coreLines = raw[:len(raw)-len(last)]
	return status, hdr, coreLines, tr
}

// inProcess renders the same query through Request.WriteTo on g — the
// byte-exactness oracle for the wire format.
func inProcess(t testing.TB, g *tkc.Graph, q tkc.QueryJSON) []byte {
	t.Helper()
	req, err := q.Request(g)
	if err != nil {
		t.Fatalf("in-process request: %v", err)
	}
	var buf bytes.Buffer
	if _, err := req.WriteTo(context.Background(), &buf); err != nil {
		t.Fatalf("in-process WriteTo: %v", err)
	}
	return buf.Bytes()
}

// ndjsonEdges renders edges as the append wire format.
func ndjsonEdges(edges []tkc.Edge) string {
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"t\":%d}\n", e.U, e.V, e.Time)
	}
	return b.String()
}

// TestQueryMatchesInProcess locks the end-to-end contract: the HTTP
// response body (minus the stats trailer) byte-matches Request.WriteTo on
// the same graph, across seeds, k values and projections.
func TestQueryMatchesInProcess(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		edges := genEdges(t, seed, 200+int(seed)*40)
		g, err := tkc.NewGraph(edges)
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, serve.Config{Graph: g})
		lo, hi := g.TimeSpan()
		mid := lo + (hi-lo)/2

		cases := []struct {
			name string
			body string
			q    tkc.QueryJSON
		}{
			{"full_default", `{"k":2}`, tkc.QueryJSON{K: 2}},
			{"window_edges", fmt.Sprintf(`{"k":2,"start":%d,"end":%d}`, lo, mid),
				tkc.QueryJSON{K: 2, Start: &lo, End: &mid}},
			{"vertices", `{"k":3,"project":"vertices"}`, tkc.QueryJSON{K: 3, Project: "vertices"}},
			{"count", `{"k":2,"project":"count"}`, tkc.QueryJSON{K: 2, Project: "count"}},
			{"base_algo", `{"k":2,"algorithm":"base"}`, tkc.QueryJSON{K: 2, Algorithm: "base"}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("seed%d/%s", seed, tc.name), func(t *testing.T) {
				status, hdr, lines, tr := postQuery(t, ts.URL, tc.body)
				if status != http.StatusOK {
					t.Fatalf("status %d, error %q", status, tr.Error)
				}
				if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Errorf("Content-Type = %q", ct)
				}
				if hdr.Get("X-Tkc-Epoch") != "0" {
					t.Errorf("X-Tkc-Epoch = %q, want 0", hdr.Get("X-Tkc-Epoch"))
				}
				want := inProcess(t, g, tc.q)
				if !bytes.Equal(lines, want) {
					t.Errorf("HTTP body differs from in-process WriteTo.\n--- http ---\n%s--- in-process ---\n%s", lines, want)
				}
				if tr.Stats == nil {
					t.Fatalf("missing stats trailer")
				}
				if tr.Stats.Epoch != 0 {
					t.Errorf("trailer epoch = %d, want 0", tr.Stats.Epoch)
				}
			})
		}
	}
}

// TestAppendThenQueryMatchesDirect: edges ingested over HTTP produce the
// same served state as a direct Graph.Append, and each batch publishes an
// epoch the stats endpoint reports.
func TestAppendThenQueryMatchesDirect(t *testing.T) {
	edges := genEdges(t, 7, 240)
	baseN := 180
	g, err := tkc.NewGraph(edges[:baseN])
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{Graph: g, AppendBatch: 20})

	resp, err := http.Post(ts.URL+"/v1/append", "application/x-ndjson",
		strings.NewReader(ndjsonEdges(edges[baseN:])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar struct {
		Added, Batches, Edges int
		Epoch                 int64
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d, decode err %v", resp.StatusCode, err)
	}
	if ar.Batches < 3 {
		t.Errorf("append batches = %d, want >= 3 (60 edges / 20 per batch)", ar.Batches)
	}

	// Direct oracle replays the server's construction path — same base,
	// same 20-edge batch boundaries. (An appended graph's adjacency layout,
	// and hence WriteTo's intra-core edge order, depends on the batching;
	// core sets do not, which the differential suites cover.)
	direct, err := tkc.NewGraph(edges[:baseN])
	if err != nil {
		t.Fatal(err)
	}
	for i := baseN; i < len(edges); i += 20 {
		j := min(i+20, len(edges))
		if _, err := direct.Append(edges[i:j]...); err != nil {
			t.Fatal(err)
		}
	}
	if ar.Edges != direct.NumEdges() {
		t.Errorf("served graph has %d edges, direct append %d", ar.Edges, direct.NumEdges())
	}

	status, _, lines, tr := postQuery(t, ts.URL, `{"k":2,"project":"vertices"}`)
	if status != http.StatusOK {
		t.Fatalf("query after append: status %d %q", status, tr.Error)
	}
	want := inProcess(t, direct, tkc.QueryJSON{K: 2, Project: "vertices"})
	if !bytes.Equal(lines, want) {
		t.Errorf("HTTP state after append differs from direct Graph.Append.\n--- http ---\n%s--- direct ---\n%s", lines, want)
	}
	if tr.Stats.Epoch != ar.Epoch {
		t.Errorf("query served epoch %d, append reported %d", tr.Stats.Epoch, ar.Epoch)
	}

	st := fetchStats(t, ts.URL)
	if st.Epoch != ar.Epoch {
		t.Errorf("/v1/stats epoch = %d, append reported %d", st.Epoch, ar.Epoch)
	}
}

// TestBootstrapAppend: an empty server answers 409 until the first append
// bootstraps a graph from the stream.
func TestBootstrapAppend(t *testing.T) {
	edges := genEdges(t, 11, 150)
	_, ts := newTestServer(t, serve.Config{AppendBatch: 64})

	status, _, _, tr := postQuery(t, ts.URL, `{"k":2}`)
	if status != http.StatusConflict || tr.Error == "" {
		t.Fatalf("query on empty server: status %d, error %q; want 409 + error", status, tr.Error)
	}

	resp, err := http.Post(ts.URL+"/v1/append", "application/x-ndjson",
		strings.NewReader(ndjsonEdges(edges)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bootstrap append: status %d", resp.StatusCode)
	}

	// Replay the bootstrap path: first 64 parsed edges become NewGraph, the
	// rest arrive as 64-edge append batches.
	oracle, err := tkc.NewGraph(edges[:64])
	if err != nil {
		t.Fatal(err)
	}
	for i := 64; i < len(edges); i += 64 {
		j := min(i+64, len(edges))
		if _, err := oracle.Append(edges[i:j]...); err != nil {
			t.Fatal(err)
		}
	}
	status, _, lines, _ := postQuery(t, ts.URL, `{"k":2}`)
	if status != http.StatusOK {
		t.Fatalf("query after bootstrap: status %d", status)
	}
	want := inProcess(t, oracle, tkc.QueryJSON{K: 2})
	if !bytes.Equal(lines, want) {
		t.Errorf("bootstrapped state differs from an equivalent direct build of the same stream")
	}
}

// TestEarlyStopOverTheWire: earlyStop bounds the stream — the response
// carries exactly n core lines plus the trailer, and the engine stopped
// (the trailer's core count matches the limit, not the full result).
func TestEarlyStopOverTheWire(t *testing.T) {
	edges := genEdges(t, 3, 300)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{Graph: g})

	// Full result first, to know the query has plenty of cores.
	status, _, _, trFull := postQuery(t, ts.URL, `{"k":2,"project":"count"}`)
	if status != http.StatusOK {
		t.Fatal("count query failed")
	}
	if trFull.Stats.Cores < 5 {
		t.Skipf("graph yields only %d cores; want >= 5 for a meaningful early stop", trFull.Stats.Cores)
	}

	status, _, lines, tr := postQuery(t, ts.URL, `{"k":2,"earlyStop":2}`)
	if status != http.StatusOK {
		t.Fatalf("earlyStop query: status %d", status)
	}
	if got := bytes.Count(lines, []byte("\n")); got != 2 {
		t.Errorf("earlyStop:2 streamed %d core lines, want 2", got)
	}
	if tr.Stats.Cores != 2 {
		t.Errorf("trailer cores = %d, want 2 (engine must stop at the limit)", tr.Stats.Cores)
	}
	want := inProcess(t, g, tkc.QueryJSON{K: 2, EarlyStop: 2})
	if !bytes.Equal(lines, want) {
		t.Errorf("earlyStop wire bytes differ from in-process WriteTo")
	}
}

// TestWarmQueryHitsCache: a repeated (epoch, k, window) query over HTTP is
// served from the qcache — the trailer flips to cacheHit and the server's
// cache counters record the hit.
func TestWarmQueryHitsCache(t *testing.T) {
	edges := genEdges(t, 5, 400)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{Graph: g})

	_, _, _, cold := postQuery(t, ts.URL, `{"k":2,"project":"count"}`)
	if cold.Stats.CacheHit {
		t.Fatalf("first query reported a cache hit on a fresh server")
	}
	_, _, _, warm := postQuery(t, ts.URL, `{"k":2,"project":"count"}`)
	if !warm.Stats.CacheHit {
		t.Errorf("repeat query did not hit the serving cache")
	}
	if cold.Stats.Cores != warm.Stats.Cores || cold.Stats.ResultEdges != warm.Stats.ResultEdges {
		t.Errorf("warm result differs from cold: %+v vs %+v", warm.Stats, cold.Stats)
	}
	st := fetchStats(t, ts.URL)
	if st.Cache.Hits < 1 {
		t.Errorf("server CacheStats.Hits = %d, want >= 1", st.Cache.Hits)
	}
}

// TestEpochPinning: a query may pin a retained epoch and keeps reading the
// pre-append state; an evicted sequence number answers 410.
func TestEpochPinning(t *testing.T) {
	edges := genEdges(t, 9, 200)
	g, err := tkc.NewGraph(edges[:150])
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{Graph: g, AppendBatch: 50})

	want0 := inProcess(t, g, tkc.QueryJSON{K: 2, Project: "vertices"})

	resp, err := http.Post(ts.URL+"/v1/append", "application/x-ndjson",
		strings.NewReader(ndjsonEdges(edges[150:])))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Pinned to epoch 0: the pre-append bytes, even though newer epochs
	// exist.
	status, _, lines, tr := postQuery(t, ts.URL, `{"k":2,"project":"vertices","epoch":0}`)
	if status != http.StatusOK {
		t.Fatalf("pinned query: status %d %q", status, tr.Error)
	}
	if tr.Stats.Epoch != 0 {
		t.Errorf("pinned query served epoch %d, want 0", tr.Stats.Epoch)
	}
	if !bytes.Equal(lines, want0) {
		t.Errorf("epoch-pinned response differs from the frozen pre-append state")
	}

	// A sequence number that was never published answers 410.
	status, _, _, tr = postQuery(t, ts.URL, `{"k":2,"epoch":999}`)
	if status != http.StatusGone || tr.Error == "" {
		t.Errorf("unknown epoch: status %d, error %q; want 410 + error", status, tr.Error)
	}
}

// TestBadRequests locks the structured-error contract: malformed JSON and
// invalid builder inputs answer 400 with a one-line {"error": ...} body.
func TestBadRequests(t *testing.T) {
	edges := genEdges(t, 2, 120)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{Graph: g})
	lo, hi := g.TimeSpan()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed_json", `{"k": `, http.StatusBadRequest},
		{"not_json", `k=3`, http.StatusBadRequest},
		{"k_zero", `{"k":0}`, http.StatusBadRequest},
		{"k_negative", `{"k":-4}`, http.StatusBadRequest},
		{"unknown_projection", `{"k":2,"project":"everything"}`, http.StatusBadRequest},
		{"unknown_algorithm", `{"k":2,"algorithm":"magic"}`, http.StatusBadRequest},
		{"unknown_field", `{"k":2,"larlyStop":5}`, http.StatusBadRequest},
		{"inverted_range", fmt.Sprintf(`{"k":2,"start":%d,"end":%d}`, hi, lo), http.StatusBadRequest},
		{"range_misses_graph", fmt.Sprintf(`{"k":2,"start":%d,"end":%d}`, hi+1000, hi+2000), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, _, tr := postQuery(t, ts.URL, tc.body)
			if status != tc.want {
				t.Errorf("status = %d, want %d", status, tc.want)
			}
			if tr.Error == "" {
				t.Errorf("missing structured error body")
			}
		})
	}

	// Wrong methods 405 via the mux method patterns.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query status = %d, want 405", resp.StatusCode)
	}
}

// TestAdmissionSheds503: with one admission slot and a deliberately slow
// (cache-disabled) query holding it, a concurrent burst is refused with
// 503 + Retry-After within the admission wait instead of queuing.
func TestAdmissionSheds503(t *testing.T) {
	edges := genEdges(t, 13, 12000)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{
		Graph:         g,
		Cache:         &tkc.CacheOptions{Disable: true}, // every query pays CoreTime
		MaxInFlight:   1,
		AdmissionWait: time.Millisecond,
	})

	const burst = 6
	type result struct {
		status     int
		retryAfter string
		elapsed    time.Duration
	}
	results := make([]result, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json",
				strings.NewReader(`{"k":3,"project":"count"}`))
			if err != nil {
				t.Errorf("burst query %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results[i] = result{resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(t0)}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for _, r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if r.retryAfter == "" {
				t.Errorf("503 without Retry-After header")
			}
			if r.elapsed > 2*time.Second {
				t.Errorf("503 took %v; load shedding must answer within the deadline", r.elapsed)
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok == 0 {
		t.Errorf("no query succeeded under saturation")
	}
	if shed == 0 {
		t.Errorf("no query was shed; admission control did not engage")
	}

	st := fetchStats(t, ts.URL)
	if st.AdmissionRejected < int64(shed) {
		t.Errorf("stats admissionRejected = %d, want >= %d", st.AdmissionRejected, shed)
	}
	body := fetchMetrics(t, ts.URL)
	if !strings.Contains(body, "tkc_admission_rejected_total") {
		t.Errorf("/metrics missing tkc_admission_rejected_total:\n%s", body)
	}
}

// TestGracefulShutdownDrains: Shutdown closes the listener but lets an
// in-flight chunked stream run to its trailer.
func TestGracefulShutdownDrains(t *testing.T) {
	edges := genEdges(t, 17, 8000)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{
		Graph: g,
		Cache: &tkc.CacheOptions{Disable: true}, // keep the query slow
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	type qres struct {
		tr  trailerJSON
		err error
	}
	started := make(chan struct{})
	done := make(chan qres, 1)
	go func() {
		close(started)
		resp, err := http.Post(base+"/v1/query", "application/json",
			strings.NewReader(`{"k":3,"project":"count"}`))
		if err != nil {
			done <- qres{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			done <- qres{err: err}
			return
		}
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		var tr trailerJSON
		err = json.Unmarshal(lines[len(lines)-1], &tr)
		done <- qres{tr: tr, err: err}
	}()

	<-started
	time.Sleep(20 * time.Millisecond) // let the query reach the engine
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight query was cut by shutdown: %v", r.err)
	}
	if r.tr.Stats == nil {
		t.Fatalf("drained query has no stats trailer (error %q)", r.tr.Error)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// serverStatsJSON mirrors the /v1/stats body.
type serverStatsJSON struct {
	Epoch             int64          `json:"epoch"`
	Vertices          int            `json:"vertices"`
	Edges             int            `json:"edges"`
	Start             int64          `json:"start"`
	End               int64          `json:"end"`
	InFlight          int            `json:"inFlight"`
	AdmissionRejected int64          `json:"admissionRejected"`
	Cache             tkc.CacheStats `json:"cache"`
	Endpoints         map[string]struct {
		Count int64            `json:"count"`
		Codes map[string]int64 `json:"codes"`
		P50Ms float64          `json:"p50Ms"`
		P99Ms float64          `json:"p99Ms"`
	} `json:"endpoints"`
}

func fetchStats(t testing.TB, base string) serverStatsJSON {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serverStatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	return st
}

func fetchMetrics(t testing.TB, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestStatsAndMetricsShape: the observability endpoints report the served
// state and per-endpoint latency percentiles.
func TestStatsAndMetricsShape(t *testing.T) {
	edges := genEdges(t, 4, 150)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{Graph: g})

	for i := 0; i < 3; i++ {
		postQuery(t, ts.URL, `{"k":2,"project":"count"}`)
	}
	st := fetchStats(t, ts.URL)
	if st.Edges != g.NumEdges() || st.Vertices != g.NumVertices() {
		t.Errorf("stats graph shape = %d/%d, want %d/%d", st.Vertices, st.Edges, g.NumVertices(), g.NumEdges())
	}
	q, ok := st.Endpoints["query"]
	if !ok || q.Count != 3 || q.Codes["200"] != 3 {
		t.Errorf("stats endpoints[query] = %+v, want 3×200", q)
	}
	if q.P50Ms <= 0 || q.P99Ms < q.P50Ms {
		t.Errorf("implausible quantiles: p50=%v p99=%v", q.P50Ms, q.P99Ms)
	}

	body := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		`tkc_requests_total{endpoint="query",code="200"} 3`,
		`tkc_request_duration_seconds{endpoint="query",quantile="0.99"}`,
		"tkc_epoch_seq 0",
		"tkc_cache_hits_total",
		fmt.Sprintf("tkc_graph_edges %d", g.NumEdges()),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
}

// TestMetricsCountCuts sweeps distinct windows over HTTP until their
// builds buy the full range and later windows are cut from it, and pins
// tkc_cache_cuts_total: every query either built (a miss) or was cut, and
// the one that bought the full range did both.
func TestMetricsCountCuts(t *testing.T) {
	edges := genEdges(t, 9, 600)
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{Graph: g})
	var times []int64
	for _, e := range edges {
		times = append(times, e.Time)
	}
	slices.Sort(times)
	times = slices.Compact(times)
	const n = 30
	span := len(times) * 45 / 100
	for i := 0; i < n; i++ {
		a := i * (len(times) - span) / n
		body := fmt.Sprintf(`{"k":2,"start":%d,"end":%d,"project":"count"}`, times[a], times[a+span-1])
		if status, _, _, tr := postQuery(t, ts.URL, body); status != http.StatusOK || tr.Stats == nil || tr.Stats.CacheHit {
			t.Fatalf("query %d: status %d, trailer %+v", i, status, tr)
		}
	}
	cs := g.CacheStats()
	if cs.Cuts == 0 || cs.Hits != 0 || cs.Cuts+cs.Misses != n+1 {
		t.Fatalf("%d distinct windows: %+v; want cuts, no hits, and cuts + misses = %d", n, cs, n+1)
	}
	if body := fetchMetrics(t, ts.URL); !strings.Contains(body, fmt.Sprintf("tkc_cache_cuts_total %d\n", cs.Cuts)) {
		t.Errorf("/metrics missing tkc_cache_cuts_total %d:\n%s", cs.Cuts, body)
	}
}
