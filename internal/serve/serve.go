// Package serve is the HTTP serving layer over Query API v2: it exposes
// the Request builder over the wire with the production concerns a network
// front-end owes its callers — admission control, per-request deadlines
// mapped onto the engine's context plumbing, epoch-pinned reads, and
// latency/cache observability.
//
// Endpoints:
//
//	POST /v1/query   {"k":3,"start":..,"end":..,"project":..,"algorithm":..,
//	                  "earlyStop":..,"epoch":..,"deadlineMs":..}
//	                 → chunked NDJSON core stream (the Request.WriteTo wire
//	                   format, byte for byte) followed by one stats trailer
//	                   line {"stats":{...}}. Queries execute against the
//	                   latest published epoch, or against a pinned epoch
//	                   when "epoch" names a still-retained sequence number.
//	POST /v1/append  NDJSON or text edge lines (the AppendReader formats),
//	                 appended in batches; every batch publishes a fresh
//	                 epoch, so concurrent readers stay snapshot-isolated.
//	GET  /v1/stats   JSON: epoch seq, graph shape, cache counters,
//	                 per-endpoint latency percentiles, admission state.
//	GET  /metrics    the same counters in Prometheus text format.
//	GET  /healthz    liveness.
//
// Admission control is a semaphore in front of the query/append path: a
// request that cannot claim a slot within the configured wait is refused
// with 503 and a Retry-After header instead of queuing unboundedly.
// Deadlines ride the existing ctx plumbing — the engine's bounded poll
// strides cancel a query mid-CoreTime when the deadline fires or the
// client disconnects. Shutdown drains in-flight streams.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	tkc "temporalkcore"
)

// Config parameterises a Server. The zero value of every field is a usable
// default.
type Config struct {
	// Graph is the graph to serve. Nil starts the server empty: queries
	// answer 409 until the first append bootstraps a graph. Ignored when
	// Durable is set.
	Graph *tkc.Graph

	// Durable, when non-nil, serves the graph recovered from (and persisted
	// to) a data directory: every append batch is WAL-logged before it is
	// applied, POST /v1/snapshot (and Server.Snapshot) persists segment
	// snapshots with a warm spill of the serving cache, and an empty
	// directory bootstraps from the first append. Takes precedence over
	// Graph.
	Durable *tkc.DurableGraph

	// Sharded, when non-nil, serves a time-range sharded graph: queries
	// run on the pinned view's epoch as unsharded ones do and report how
	// many shards their window overlaps, appends route through the
	// frontier shard (auto-sealing per its ShardOptions), epoch pinning
	// addresses published ShardedViews, /v1/stats lists each shard's
	// bounds, edges and seal sequence, and /metrics its edges and seal
	// state. Takes precedence over Durable and Graph; pair it with a
	// sharded data directory (BootstrapShardedDir/OpenShardedDir) for
	// durability.
	Sharded *tkc.ShardedGraph

	// Cache, when non-nil, reconfigures the graph's serving cache (it is
	// applied to a bootstrapped graph too). Nil keeps the graph's current
	// configuration (enabled at DefaultCacheMaxBytes for a fresh graph).
	Cache *tkc.CacheOptions

	// MaxInFlight bounds the number of query/append requests executing
	// concurrently; further requests wait up to AdmissionWait for a slot
	// and are then refused with 503. <= 0 means 8 slots per CPU.
	MaxInFlight int

	// AdmissionWait is how long a request may wait for an admission slot
	// before 503. <= 0 means 10ms: long enough to absorb a momentary
	// burst, short enough that a saturated server sheds load within its
	// deadline instead of queuing.
	AdmissionWait time.Duration

	// DefaultDeadline bounds a query that does not set deadlineMs.
	// <= 0 means 30s.
	DefaultDeadline time.Duration

	// MaxDeadline caps the per-request deadlineMs. <= 0 means 5m.
	MaxDeadline time.Duration

	// AppendBatch is the number of edges appended (and published) per
	// batch while ingesting an append body. <= 0 means 1024.
	AppendBatch int

	// EpochRetain is how many recently published epochs stay addressable
	// through the "epoch" request field (the latest epoch always is).
	// <= 0 means 8.
	EpochRetain int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8 * runtime.GOMAXPROCS(0)
	}
	if c.AdmissionWait <= 0 {
		c.AdmissionWait = 10 * time.Millisecond
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.AppendBatch <= 0 {
		c.AppendBatch = 1024
	}
	if c.EpochRetain <= 0 {
		c.EpochRetain = 8
	}
	return c
}

// Server serves a temporal k-core graph over HTTP. Create one with New,
// mount Handler on any http.Server, or use Serve/Shutdown for the built-in
// lifecycle. All handlers are safe for concurrent use; appends are
// serialised internally (the engine is single-writer), reads are served
// from published epochs and never block the writer.
type Server struct {
	cfg Config
	mux *http.ServeMux
	adm *admission
	rec *Recorder

	// writerMu serialises the append path (Graph.Append is single-writer)
	// and the first-append bootstrap of an empty server.
	writerMu sync.Mutex
	graph    atomic.Pointer[tkc.Graph]
	durable  *tkc.DurableGraph // nil when serving without a data directory
	sharded  *tkc.ShardedGraph // nil when serving unsharded

	// epochs is the ring of recently published snapshots that stay
	// addressable by sequence number through the "epoch" request field.
	// In sharded mode sviews is the ring instead: a pinned entry must
	// carry the shard directory that was current at publish time, not
	// just the epoch.
	epochsMu sync.Mutex
	epochs   []*tkc.Snapshot    // tkc:guardedby epochsMu
	sviews   []*tkc.ShardedView // tkc:guardedby epochsMu

	started time.Time

	hsMu sync.Mutex
	hs   *http.Server // tkc:guardedby hsMu
}

// New builds a Server from cfg. When cfg.Graph is set and has never been
// published, its current state is published as the first served epoch.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxInFlight, cfg.AdmissionWait),
		rec:     NewRecorder(),
		started: time.Now(),
	}
	if cfg.Sharded != nil {
		s.sharded = cfg.Sharded
		if cfg.Cache != nil {
			cfg.Sharded.SetCacheOptions(*cfg.Cache)
		}
		v := cfg.Sharded.Latest()
		s.retainView(v)
		s.graph.Store(cfg.Sharded.Spine())
		s.mountMux()
		return s
	}
	if cfg.Durable != nil {
		s.durable = cfg.Durable
		cfg.Graph = cfg.Durable.Graph() // may be nil: empty data directory
		if cfg.Graph != nil && cfg.Cache != nil {
			// Reconfiguring the cache drops the entries OpenDir re-admitted
			// from the warm spill; load them again into the new cache.
			cfg.Graph.SetCacheOptions(*cfg.Cache)
			cfg.Durable.ReloadWarm()
			cfg.Cache = nil
		}
	}
	if cfg.Graph != nil {
		if cfg.Cache != nil {
			cfg.Graph.SetCacheOptions(*cfg.Cache)
		}
		ep := cfg.Graph.Latest()
		if ep == nil {
			ep = cfg.Graph.Publish()
		}
		s.retain(ep)
		s.graph.Store(cfg.Graph)
	}
	s.mountMux()
	return s
}

func (s *Server) mountMux() {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", s.instrument("query", s.handleQuery))
	mux.Handle("POST /v1/append", s.instrument("append", s.handleAppend))
	mux.Handle("POST /v1/snapshot", s.instrument("snapshot", s.handleSnapshot))
	mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.Handle("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	}))
	s.mux = mux
}

// Handler returns the server's HTTP handler, for mounting on an external
// http.Server (or an httptest one).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown (or a listener error). It
// mirrors http.Server.Serve: the returned error is http.ErrServerClosed
// after a clean Shutdown.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	return hs.Serve(l)
}

// Shutdown gracefully stops a server started with Serve: the listener
// closes immediately, in-flight requests (including chunked query streams)
// drain to completion, bounded by ctx. When ctx expires first the
// remaining connections are closed forcefully.
func (s *Server) Shutdown(ctx context.Context) error {
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs == nil {
		return nil
	}
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return err
	}
	return nil
}

// graphOrNil returns the served graph, nil while the server is empty.
func (s *Server) graphOrNil() *tkc.Graph { return s.graph.Load() }

// Snapshot persists the durable graph's current state (segment image plus
// warm-cache spill) and returns the persisted sequence number. It errors
// when the server has no data directory or no graph yet. Safe from any
// goroutine — the snapshot timer and the /v1/snapshot endpoint both funnel
// here — and concurrent appends proceed while the image is written.
func (s *Server) Snapshot() (int64, error) {
	if s.sharded != nil {
		if !s.sharded.Durable() {
			return -1, fmt.Errorf("serve: no data directory configured")
		}
		return s.sharded.SnapshotDurable()
	}
	if s.durable == nil {
		return -1, fmt.Errorf("serve: no data directory configured")
	}
	if s.graphOrNil() == nil {
		return -1, fmt.Errorf("serve: no graph loaded yet")
	}
	return s.durable.Snapshot()
}

// retain records ep in the addressable-epoch ring (deduplicating by
// sequence number) and drops entries beyond the retention bound.
func (s *Server) retain(ep *tkc.Snapshot) {
	s.epochsMu.Lock()
	defer s.epochsMu.Unlock()
	if n := len(s.epochs); n > 0 && s.epochs[n-1].Seq() == ep.Seq() {
		s.epochs[n-1] = ep
		return
	}
	s.epochs = append(s.epochs, ep)
	if over := len(s.epochs) - s.cfg.EpochRetain; over > 0 {
		copy(s.epochs, s.epochs[over:])
		s.epochs = s.epochs[:s.cfg.EpochRetain]
	}
}

// epochAt returns the retained snapshot with sequence number seq, or nil.
func (s *Server) epochAt(seq int64) *tkc.Snapshot {
	s.epochsMu.Lock()
	defer s.epochsMu.Unlock()
	for i := len(s.epochs) - 1; i >= 0; i-- {
		if s.epochs[i].Seq() == seq {
			return s.epochs[i]
		}
	}
	return nil
}

// retainView is retain for sharded mode: a pinned sharded epoch must keep
// the shard directory that was current at publish time, not just the
// snapshot, so the ring holds ShardedViews.
func (s *Server) retainView(v *tkc.ShardedView) {
	s.epochsMu.Lock()
	defer s.epochsMu.Unlock()
	if n := len(s.sviews); n > 0 && s.sviews[n-1].Seq() == v.Seq() {
		s.sviews[n-1] = v
		return
	}
	s.sviews = append(s.sviews, v)
	if over := len(s.sviews) - s.cfg.EpochRetain; over > 0 {
		copy(s.sviews, s.sviews[over:])
		s.sviews = s.sviews[:s.cfg.EpochRetain]
	}
}

// viewAt returns the retained sharded view with sequence number seq, or nil.
func (s *Server) viewAt(seq int64) *tkc.ShardedView {
	s.epochsMu.Lock()
	defer s.epochsMu.Unlock()
	for i := len(s.sviews) - 1; i >= 0; i-- {
		if s.sviews[i].Seq() == seq {
			return s.sviews[i]
		}
	}
	return nil
}
