package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	tkc "temporalkcore"
	"temporalkcore/internal/serve"
)

// newShardedServer builds a sharded graph over a seeded edge list, mounts
// it on an httptest server and returns the graph plus the base URL.
func newShardedServer(t testing.TB, edges []tkc.Edge, o tkc.ShardOptions, cfg serve.Config) (*tkc.ShardedGraph, string) {
	t.Helper()
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := tkc.ShardGraph(g, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sg.Close() })
	cfg.Sharded = sg
	_, ts := newTestServer(t, cfg)
	return sg, ts.URL
}

// TestShardedServeMatchesInProcess locks the sharded wire contract: the
// HTTP core stream (minus the trailer) byte-matches Request.WriteTo on the
// unsharded spine — the same oracle the engine-level differential uses —
// and the trailer reports how many shards the window overlaps.
func TestShardedServeMatchesInProcess(t *testing.T) {
	edges := genEdges(t, 7, 300)
	sg, base := newShardedServer(t, edges, tkc.ShardOptions{Shards: 3}, serve.Config{})
	spine := sg.Spine()
	lo, hi := spine.TimeSpan()
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, hdr, lines, tr := postQuery(t, base, tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d, error %q", status, tr.Error)
			}
			if hdr.Get("X-Tkc-Epoch") != "0" {
				t.Errorf("X-Tkc-Epoch = %q, want 0", hdr.Get("X-Tkc-Epoch"))
			}
			want := inProcess(t, spine, tc.q)
			if string(lines) != string(want) {
				t.Fatalf("sharded wire stream diverged from the unsharded oracle:\n got %q\nwant %q", lines, want)
			}
			if tr.Stats == nil || tr.Stats.Shards < 1 {
				t.Fatalf("trailer did not report overlapping shards: %+v", tr.Stats)
			}
		})
	}

	// The algorithm override is rejected eagerly on a sharded source.
	status, _, _, tr := postQuery(t, base, `{"k":2,"algorithm":"otcd"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("algorithm override on a sharded server: status %d, error %q", status, tr.Error)
	}
}

// TestShardedServeAppendSealAndPinning drives the full lifecycle over the
// wire: appends route through the frontier shard (auto-sealing mid-stream),
// every batch publishes a retained sharded view, and a pinned epoch keeps
// answering with the directory it was published under.
func TestShardedServeAppendSealAndPinning(t *testing.T) {
	edges := genEdges(t, 11, 360)
	head, rest := edges[:240], edges[240:]
	sg, base := newShardedServer(t, head,
		tkc.ShardOptions{Shards: 2, MaxShardEdges: 60},
		serve.Config{EpochRetain: 16})
	startShards := sg.NumShards()

	_, _, beforeLines, beforeTr := postQuery(t, base, `{"k":2}`)
	if beforeTr.Stats == nil {
		t.Fatalf("no stats trailer: %+v", beforeTr)
	}
	pinned := beforeTr.Stats.Epoch

	resp, err := http.Post(base+"/v1/append?batch=40", "application/x-ndjson",
		strings.NewReader(ndjsonEdges(rest)))
	if err != nil {
		t.Fatal(err)
	}
	var ar struct {
		Added   int   `json:"added"`
		Batches int   `json:"batches"`
		Epoch   int64 `json:"epoch"`
		Edges   int   `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ar.Added == 0 || ar.Batches < 3 {
		t.Fatalf("append: status %d body %+v", resp.StatusCode, ar)
	}
	if ar.Edges != sg.Spine().NumEdges() {
		t.Fatalf("append reported %d edges, spine has %d", ar.Edges, sg.Spine().NumEdges())
	}
	if sg.NumShards() <= startShards {
		t.Fatalf("appends never auto-sealed: %d shards before and after", startShards)
	}

	// Latest now serves the grown graph under more shards...
	_, _, afterLines, afterTr := postQuery(t, base, `{"k":2}`)
	if afterTr.Stats.Epoch != ar.Epoch {
		t.Fatalf("latest query epoch %d, append finished at %d", afterTr.Stats.Epoch, ar.Epoch)
	}
	if string(afterLines) == string(beforeLines) {
		t.Fatal("append did not change the k-core stream; the lifecycle test is vacuous")
	}
	// ...while the pinned epoch still answers with its publish-time state.
	status, hdr, pinnedLines, pinnedTr := postQuery(t, base, fmt.Sprintf(`{"k":2,"epoch":%d}`, pinned))
	if status != http.StatusOK {
		t.Fatalf("pinned query: status %d, error %q", status, pinnedTr.Error)
	}
	if hdr.Get("X-Tkc-Epoch") != fmt.Sprint(pinned) {
		t.Errorf("pinned X-Tkc-Epoch = %q, want %d", hdr.Get("X-Tkc-Epoch"), pinned)
	}
	if string(pinnedLines) != string(beforeLines) {
		t.Fatal("pinned sharded epoch served different bytes than it did at publish time")
	}
	// An unretained epoch is 410.
	if status, _, _, _ := postQuery(t, base, `{"k":2,"epoch":999999}`); status != http.StatusGone {
		t.Fatalf("unretained epoch: status %d, want 410", status)
	}

	// /v1/stats exposes the per-shard breakdown, frontier last.
	sr, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Epoch  int64 `json:"epoch"`
		Edges  int   `json:"edges"`
		Shards []struct {
			ID     int   `json:"id"`
			Sealed bool  `json:"sealed"`
			Start  int64 `json:"start"`
			End    int64 `json:"end"`
			Edges  int   `json:"edges"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(stats.Shards) != sg.NumShards() {
		t.Fatalf("/v1/stats has %d shards, graph has %d", len(stats.Shards), sg.NumShards())
	}
	total := 0
	for i, sh := range stats.Shards {
		if sh.ID != i {
			t.Fatalf("shards[%d].id = %d", i, sh.ID)
		}
		if sh.Sealed != (i < len(stats.Shards)-1) {
			t.Fatalf("shards[%d].sealed = %v", i, sh.Sealed)
		}
		if i > 0 && sh.Edges > 0 && stats.Shards[i-1].Edges > 0 && sh.Start <= stats.Shards[i-1].End {
			t.Fatalf("shards[%d] starts at %d, inside its predecessor ending at %d", i, sh.Start, stats.Shards[i-1].End)
		}
		total += sh.Edges
	}
	if total != stats.Edges {
		t.Fatalf("shard edges sum to %d, stats.edges = %d", total, stats.Edges)
	}

	// /metrics carries the labelled per-shard families.
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		"# TYPE tkc_shard_edges gauge",
		fmt.Sprintf(`tkc_shard_edges{shard="0"} %d`, stats.Shards[0].Edges),
		`tkc_shard_sealed{shard="0"} 1`,
		fmt.Sprintf(`tkc_shard_sealed{shard="%d"} 0`, sg.NumShards()-1),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}

	// Without a data directory, snapshot is refused.
	if resp, err := http.Post(base+"/v1/snapshot", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("snapshot without -data: status %d, want 409", resp.StatusCode)
		}
	}
}

// TestShardedServeDurableSnapshot serves a durable sharded graph and
// exercises POST /v1/snapshot end to end.
func TestShardedServeDurableSnapshot(t *testing.T) {
	dir := t.TempDir()
	sg, err := tkc.BootstrapShardedDir(dir, genEdges(t, 13, 240), tkc.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	_, ts := newTestServer(t, serve.Config{Sharded: sg})
	base := ts.URL

	if status, _, _, tr := postQuery(t, base, `{"k":2}`); status != http.StatusOK {
		t.Fatalf("query on durable sharded server: status %d, error %q", status, tr.Error)
	}
	resp, err := http.Post(base+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Snapshot int64 `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.Snapshot < 0 {
		t.Fatalf("snapshot: status %d body %+v", resp.StatusCode, sr)
	}
}
