package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	tkc "temporalkcore"
)

// queryRequest is the /v1/query body: the engine's wire mapping plus the
// transport concerns the serving layer owns — epoch pinning and the
// per-request deadline.
type queryRequest struct {
	tkc.QueryJSON

	// Epoch pins the query to a specific published epoch (Snapshot.Seq).
	// Omitted means the latest published epoch. A sequence number no
	// longer retained answers 410: the caller must re-resolve from
	// /v1/stats and accept the newer state.
	Epoch *int64 `json:"epoch,omitempty"`

	// DeadlineMS bounds this query's execution (and streaming) in
	// milliseconds; the engine cancels mid-CoreTime when it fires.
	// Omitted means the server's default deadline; values beyond the
	// server's maximum are capped.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
}

// instrument wraps a handler with the admission-independent metrics
// recording: every request is timed and counted by final status code.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.rec.Record(name, sw.code, time.Since(t0))
	})
}

// statusWriter records the response code and body bytes written, so the
// query handler can distinguish "nothing sent yet — a status code is still
// possible" from "mid-stream — errors must go on the wire as a trailer".
type statusWriter struct {
	http.ResponseWriter
	code        int
	wroteHeader bool
	n           int64
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.code = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSONError answers with a one-line structured error body.
func writeJSONError(w http.ResponseWriter, code int, format string, args ...any) {
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}

// writeAppendError answers a failed append with the structured partial-
// progress body of the batch-atomicity contract: the error, the committed
// edge/batch counts, and the last published epoch.
func writeAppendError(w http.ResponseWriter, code, added, batches int, epoch int64, format string, args ...any) {
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%s,\"added\":%d,\"batches\":%d,\"epoch\":%d}\n", msg, added, batches, epoch)
}

// statusClientClosedRequest is recorded (nginx's 499 convention) when the
// client disconnected before the response completed; nothing more can be
// written to the connection.
const statusClientClosedRequest = 499

// handleQuery compiles the JSON body into a v2 Request against the
// resolved epoch and streams the result as chunked NDJSON via WriteTo,
// then appends one deterministic stats trailer line. First/EarlyStop stay
// cheap end to end: the engine stops once the limit is emitted, and a
// client that closes its connection cancels the plan context mid-phase.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.adm.acquire(r.Context()) {
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable, "server saturated (%d queries in flight); retry", s.adm.inflight())
		return
	}
	defer s.adm.release()

	var q queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad query body: %v", err)
		return
	}

	g := s.graphOrNil()
	if g == nil {
		writeJSONError(w, http.StatusConflict, "no graph loaded; POST edges to /v1/append first")
		return
	}
	// Resolve the query source: in sharded mode a pinned epoch must carry
	// the shard directory that was current at publish time, so the ring
	// holds ShardedViews; otherwise it is a plain pinned snapshot.
	var src tkc.Querier
	var seq int64
	if s.sharded != nil {
		v := s.sharded.Latest()
		if q.Epoch != nil {
			if v = s.viewAt(*q.Epoch); v == nil {
				writeJSONError(w, http.StatusGone, "epoch %d is not retained (latest is %d)", *q.Epoch, s.sharded.Latest().Seq())
				return
			}
		}
		src, seq = v, v.Seq()
	} else {
		snap := g.Latest()
		if q.Epoch != nil {
			if snap = s.epochAt(*q.Epoch); snap == nil {
				writeJSONError(w, http.StatusGone, "epoch %d is not retained (latest is %d)", *q.Epoch, g.Latest().Seq())
				return
			}
		}
		src, seq = snap.Graph, snap.Seq()
	}

	req, err := q.RequestFrom(src)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "%v", err)
		return
	}

	deadline := s.cfg.DefaultDeadline
	if q.DeadlineMS > 0 {
		deadline = time.Duration(q.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	sw := w.(*statusWriter)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Tkc-Epoch", strconv.FormatInt(seq, 10))

	qs, err := req.WriteTo(ctx, w)
	if err != nil {
		s.queryError(sw, r, seq, err)
		return
	}
	// The stats trailer: one deterministic NDJSON line after the core
	// stream (timings live in /metrics, not here, so golden tests can
	// byte-lock the full body). Sharded requests add the number of shards
	// the window overlaps, a deterministic property of the pinned view.
	if qs.Shards > 0 {
		fmt.Fprintf(w, "{\"stats\":{\"cores\":%d,\"resultEdges\":%d,\"epoch\":%d,\"cacheHit\":%v,\"shards\":%d}}\n",
			qs.Cores, qs.Edges, seq, qs.CacheHit, qs.Shards)
		return
	}
	fmt.Fprintf(w, "{\"stats\":{\"cores\":%d,\"resultEdges\":%d,\"epoch\":%d,\"cacheHit\":%v}}\n",
		qs.Cores, qs.Edges, seq, qs.CacheHit)
}

// queryError maps an execution error onto the wire. Before the first body
// byte a proper status code is still possible; mid-stream the error is
// delivered as a trailer line on the 200 stream, which consumers detect by
// the absence of a "stats" trailer.
func (s *Server) queryError(sw *statusWriter, r *http.Request, epoch int64, err error) {
	if sw.n == 0 {
		switch {
		case r.Context().Err() != nil:
			// The client went away (or sent its own deadline): nothing can
			// be delivered; record it as a closed request.
			sw.WriteHeader(statusClientClosedRequest)
		case errors.Is(err, context.DeadlineExceeded):
			writeJSONError(sw, http.StatusGatewayTimeout, "query deadline exceeded")
		case errors.Is(err, tkc.ErrEmptyRange), errors.Is(err, tkc.ErrNoTimestamps):
			writeJSONError(sw, http.StatusBadRequest, "%v", err)
		default:
			writeJSONError(sw, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if r.Context().Err() != nil {
		return // mid-stream disconnect: no one is listening
	}
	msg, _ := json.Marshal(err.Error())
	fmt.Fprintf(sw, "{\"error\":%s,\"epoch\":%d}\n", msg, epoch)
}

// handleAppend ingests an NDJSON/text edge stream (the AppendReader line
// formats) in batches, publishing one epoch per appended batch so
// concurrent readers advance in snapshot-isolated steps. On an empty
// server the first batch bootstraps the graph; with a data directory
// configured, batches are WAL-logged before they are applied. Appends are
// serialised: the engine is single-writer, and the writer lock is held for
// the whole body, so concurrent append requests execute one at a time
// while queries keep streaming from published epochs.
//
// Error contract — atomicity is batch-granular, never edge-granular. A
// batch that fails (parse error, time-order violation) is discarded whole:
// no edge of it is applied, logged or published. Batches before it are
// already committed and published and stay that way. The 400 body states
// exactly where the stream stopped:
//
//	{"error":..., "added":N, "batches":B, "epoch":S}
//
// added/batches count only fully committed work and epoch is the last
// published sequence, so a client can resume from the first edge of the
// failed batch against exactly the state the body names.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if !s.adm.acquire(r.Context()) {
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable, "server saturated; retry")
		return
	}
	defer s.adm.release()

	batch := s.cfg.AppendBatch
	if bs := r.URL.Query().Get("batch"); bs != "" {
		n, err := strconv.Atoi(bs)
		if err != nil || n < 1 {
			writeJSONError(w, http.StatusBadRequest, "bad batch parameter %q", bs)
			return
		}
		batch = n
	}

	s.writerMu.Lock()
	defer s.writerMu.Unlock()

	br := bufio.NewReaderSize(r.Body, 1<<16)
	g := s.graphOrNil()
	added, batches := 0, 0
	var lastSeq int64 = -1
	if g != nil {
		if ep := g.Latest(); ep != nil {
			lastSeq = ep.Seq()
		}
	}

	if g == nil {
		boot, err := readEdgeLines(br, batch)
		if err != nil {
			writeAppendError(w, http.StatusBadRequest, added, batches, lastSeq, "%v", err)
			return
		}
		if len(boot) == 0 {
			writeJSONError(w, http.StatusBadRequest, "no edges in append body to bootstrap a graph")
			return
		}
		if s.durable != nil {
			g, err = s.durable.Bootstrap(boot)
		} else {
			g, err = tkc.NewGraph(boot)
		}
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "bootstrap graph: %v", err)
			return
		}
		if s.cfg.Cache != nil {
			g.SetCacheOptions(*s.cfg.Cache)
		}
		ep := g.Publish()
		s.retain(ep)
		s.graph.Store(g)
		added += g.NumEdges()
		batches++
		lastSeq = ep.Seq()
	}

	ar := tkc.NewAppendReader(g, br)
	ar.BatchSize = batch
	switch {
	case s.sharded != nil:
		// Batches route through the frontier shard: WAL-logged when the
		// sharded graph is durable, auto-sealing per its ShardOptions, and
		// published internally — the publish below just retains the view.
		ar.Sink = s.sharded
	case s.durable != nil:
		ar.Sink = s.durable // WAL-log each batch before it is applied
	}
	publish := func() int64 {
		if s.sharded != nil {
			v := s.sharded.Latest()
			s.retainView(v)
			return v.Seq()
		}
		ep := g.Publish()
		s.retain(ep)
		return ep.Seq()
	}
	for {
		if err := r.Context().Err(); err != nil {
			writeAppendError(w, http.StatusBadRequest, added, batches, lastSeq, "append aborted: %v", err)
			return
		}
		n, err := ar.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			// The failing batch was discarded whole; earlier batches are
			// committed and published. The body pins the committed frontier.
			writeAppendError(w, http.StatusBadRequest, added, batches, lastSeq, "%v", err)
			return
		}
		if n == 0 {
			continue // batch fully collapsed into existing edges
		}
		added += n
		batches++
		lastSeq = publish()
	}

	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"added\":%d,\"batches\":%d,\"epoch\":%d,\"edges\":%d}\n",
		added, batches, lastSeq, g.NumEdges())
}

// handleSnapshot persists the durable graph's current state — segment
// image plus warm-cache spill — and reports the persisted sequence. 409
// without a data directory or before the first bootstrap.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.adm.acquire(r.Context()) {
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusServiceUnavailable, "server saturated; retry")
		return
	}
	defer s.adm.release()
	if s.sharded != nil {
		if !s.sharded.Durable() {
			writeJSONError(w, http.StatusConflict, "server has no data directory (start with -data)")
			return
		}
	} else if s.durable == nil {
		writeJSONError(w, http.StatusConflict, "server has no data directory (start with -data)")
		return
	}
	if s.graphOrNil() == nil {
		writeJSONError(w, http.StatusConflict, "no graph loaded; POST edges to /v1/append first")
		return
	}
	seq, err := s.Snapshot()
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"snapshot\":%d}\n", seq)
}

// readEdgeLines reads up to limit edges from br (one per line, AppendReader
// formats), consuming exactly the lines it parses.
func readEdgeLines(br *bufio.Reader, limit int) ([]tkc.Edge, error) {
	var out []tkc.Edge
	lineNo := 0
	for len(out) < limit {
		line, err := br.ReadString('\n')
		if line != "" {
			lineNo++
			e, ok, perr := tkc.ParseEdgeLine(line)
			if perr != nil {
				return nil, fmt.Errorf("append body line %d: %w", lineNo, perr)
			}
			if ok {
				out = append(out, e)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading append body: %w", err)
		}
	}
	return out, nil
}

// statsResponse is the /v1/stats body.
type statsResponse struct {
	Epoch      int64 `json:"epoch"` // latest published epoch seq; -1 before bootstrap
	Vertices   int   `json:"vertices"`
	Edges      int   `json:"edges"`
	Timestamps int   `json:"timestamps"`
	Start      int64 `json:"start"` // raw time span of the latest epoch
	End        int64 `json:"end"`

	UptimeSeconds     float64 `json:"uptimeSeconds"`
	InFlight          int     `json:"inFlight"`
	AdmissionRejected int64   `json:"admissionRejected"`

	Cache     tkc.CacheStats          `json:"cache"`
	Endpoints map[string]endpointJSON `json:"endpoints"`

	// Shards is present only in sharded mode: one entry per time-range
	// shard, frontier last.
	Shards []shardJSON `json:"shards,omitempty"`
}

type shardJSON struct {
	ID     int   `json:"id"`
	Sealed bool  `json:"sealed"`
	Start  int64 `json:"start"`
	End    int64 `json:"end"`
	Edges  int   `json:"edges"`
	Seq    int64 `json:"seq"`
}

type endpointJSON struct {
	Count int64            `json:"count"`
	Codes map[string]int64 `json:"codes"`
	P50Ms float64          `json:"p50Ms"`
	P99Ms float64          `json:"p99Ms"`
}

// handleStats reports the serving state as JSON: the latest epoch and
// graph shape, cache hit counters, admission state and per-endpoint
// latency percentiles.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := statsResponse{
		Epoch:             -1,
		UptimeSeconds:     time.Since(s.started).Seconds(),
		InFlight:          s.adm.inflight(),
		AdmissionRejected: s.adm.rejectedTotal(),
		Endpoints:         make(map[string]endpointJSON),
	}
	if g := s.graphOrNil(); g != nil {
		ep := g.Latest()
		resp.Epoch = ep.Seq()
		resp.Vertices = ep.NumVertices()
		resp.Edges = ep.NumEdges()
		resp.Timestamps = ep.TimestampCount()
		resp.Start, resp.End = ep.TimeSpan()
		resp.Cache = g.CacheStats()
	}
	if s.sharded != nil {
		for _, ss := range s.sharded.ShardStats() {
			resp.Shards = append(resp.Shards, shardJSON{
				ID: ss.ID, Sealed: ss.Sealed, Start: ss.StartTime, End: ss.EndTime,
				Edges: ss.Edges, Seq: ss.Seq,
			})
		}
	}
	for _, es := range s.rec.Snapshot() {
		ej := endpointJSON{
			Count: es.Count,
			Codes: make(map[string]int64, len(es.Codes)),
			P50Ms: float64(es.P50) / float64(time.Millisecond),
			P99Ms: float64(es.P99) / float64(time.Millisecond),
		}
		for c, n := range es.Codes {
			ej.Codes[strconv.Itoa(c)] = n
		}
		resp.Endpoints[es.Endpoint] = ej
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(resp)
}

// handleMetrics renders the Prometheus text exposition: request counters
// and latency summaries from the recorder, plus serving gauges (epoch,
// graph shape, cache counters, admission state).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	extra := map[string]float64{
		"tkc_admission_inflight":       float64(s.adm.inflight()),
		"tkc_admission_rejected_total": float64(s.adm.rejectedTotal()),
		"tkc_uptime_seconds":           time.Since(s.started).Seconds(),
	}
	if g := s.graphOrNil(); g != nil {
		ep := g.Latest()
		extra["tkc_epoch_seq"] = float64(ep.Seq())
		extra["tkc_graph_edges"] = float64(ep.NumEdges())
		extra["tkc_graph_vertices"] = float64(ep.NumVertices())
		cs := g.CacheStats()
		extra["tkc_cache_hits_total"] = float64(cs.Hits)
		extra["tkc_cache_misses_total"] = float64(cs.Misses)
		extra["tkc_cache_shared_total"] = float64(cs.SingleflightShared)
		extra["tkc_cache_cuts_total"] = float64(cs.Cuts)
		extra["tkc_cache_evictions_total"] = float64(cs.Evictions)
		extra["tkc_cache_retired_total"] = float64(cs.Retired)
		extra["tkc_cache_entries"] = float64(cs.Entries)
		extra["tkc_cache_bytes"] = float64(cs.Bytes)
	}
	var b strings.Builder
	s.rec.WritePrometheus(&b, extra)
	if s.sharded != nil {
		// Per-shard families carry a shard label, which the flat extra map
		// cannot express; append them after the recorder's output.
		writeShardMetrics(&b, s.sharded.ShardStats())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// writeShardMetrics renders the per-shard gauge families, one labelled
// sample per shard.
func writeShardMetrics(b *strings.Builder, stats []tkc.ShardStats) {
	families := []struct {
		name string
		val  func(tkc.ShardStats) float64
	}{
		{"tkc_shard_sealed", func(s tkc.ShardStats) float64 {
			if s.Sealed {
				return 1
			}
			return 0
		}},
		{"tkc_shard_edges", func(s tkc.ShardStats) float64 { return float64(s.Edges) }},
	}
	for _, f := range families {
		fmt.Fprintf(b, "# TYPE %s gauge\n", f.name)
		for _, s := range stats {
			fmt.Fprintf(b, "%s{shard=\"%d\"} %g\n", f.name, s.ID, f.val(s))
		}
	}
}
