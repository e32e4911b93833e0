package temporalkcore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"temporalkcore/internal/dyn"
	"temporalkcore/internal/tgraph"
)

// Append extends the graph in place with a batch of edges whose timestamps
// are all at or after the graph's current maximum (streams must arrive in
// non-decreasing time order; an out-of-order batch is rejected and leaves
// the graph untouched). Self loops are dropped and exact (u,v,t)
// duplicates are collapsed, matching NewGraph. It returns the number of
// temporal edges actually added.
//
// Memory model: Append must not run concurrently with queries on the same
// Graph value — but it never disturbs a Snapshot. Append writes only
// memory no frozen epoch references (array growth past frozen lengths,
// per-segment gap capacity beyond frozen segment ends), so one goroutine
// may Append while any number of goroutines query epochs obtained from
// Freeze, Publish or Latest, with no locking. Appended edges become
// visible to those readers only at the next Publish (or Watcher.Append,
// which publishes internally). Appending to a frozen Snapshot is an error.
//
// PreparedQuery and HistoricalIndex values built before an Append keep
// answering for the graph as of their construction; windows touching the
// append frontier may be stale. Use Watch for a view that follows appends
// incrementally.
//
// tkc:mutates
func (g *Graph) Append(edges ...Edge) (int, error) {
	raw := make([]tgraph.RawEdge, len(edges))
	for i, e := range edges {
		raw[i] = tgraph.RawEdge{U: e.U, V: e.V, Time: e.Time}
	}
	st, err := g.g.Append(raw)
	if err != nil {
		return 0, fmt.Errorf("temporalkcore: %w", err)
	}
	return st.Added, nil
}

// AppendSink is anything that can absorb an append batch with Graph.Append
// semantics: *Graph, *Watcher and *DurableGraph all implement it, so stream
// ingestion (AppendReader) and the serving layer route batches through
// whichever tier the deployment uses — plain in-memory, live-view
// publishing, or WAL-logged durable — without caring which.
type AppendSink interface {
	Append(edges ...Edge) (int, error)
}

// AppendReader incrementally parses an edge stream and appends it to a
// graph in batches. Two line formats are auto-detected per line:
//
//   - NDJSON: {"u": 1, "v": 2, "t": 42}
//   - text:   "u v t" (or "u v w t" with the weight ignored),
//     whitespace-separated
//
// Blank lines and lines starting with '#' or '%' are skipped. Timestamps
// must be non-decreasing across the stream, as required by Append.
type AppendReader struct {
	g *Graph

	// BatchSize caps the number of edges one ReadBatch call appends.
	// Defaults to 1024.
	BatchSize int

	// Via, when non-nil, routes every batch through Watcher.Append instead
	// of Graph.Append, so each batch publishes a fresh epoch and refreshes
	// the watch window — required when concurrent readers serve queries
	// while the stream is ingested. Via takes precedence over Sink.
	Via *Watcher

	// Sink, when non-nil (and Via is nil), receives every batch instead of
	// the graph — typically a *DurableGraph, so each batch is WAL-logged
	// before it is applied.
	Sink AppendSink

	sc     *bufio.Scanner
	lineNo int
	total  int
	buf    []Edge
}

// NewAppendReader wraps r for batched appends into g.
func NewAppendReader(g *Graph, r io.Reader) *AppendReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &AppendReader{g: g, BatchSize: 1024, sc: sc}
}

// ReadBatch parses up to BatchSize edges and appends them as one batch.
// It returns the number of edges added (after self-loop and duplicate
// collapsing) and io.EOF once the stream is exhausted and nothing was
// appended.
func (ar *AppendReader) ReadBatch() (int, error) {
	limit := ar.BatchSize
	if limit <= 0 {
		limit = 1024
	}
	ar.buf = ar.buf[:0]
	for len(ar.buf) < limit && ar.sc.Scan() {
		ar.lineNo++
		line := strings.TrimSpace(ar.sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		e, err := parseEdgeLine(line)
		if err != nil {
			return 0, fmt.Errorf("temporalkcore: stream line %d: %w", ar.lineNo, err)
		}
		ar.buf = append(ar.buf, e)
	}
	if err := ar.sc.Err(); err != nil {
		return 0, fmt.Errorf("temporalkcore: reading edge stream: %w", err)
	}
	if len(ar.buf) == 0 {
		return 0, io.EOF
	}
	var added int
	var err error
	switch {
	case ar.Via != nil:
		added, err = ar.Via.Append(ar.buf...)
	case ar.Sink != nil:
		added, err = ar.Sink.Append(ar.buf...)
	default:
		added, err = ar.g.Append(ar.buf...)
	}
	if err != nil {
		return 0, err
	}
	ar.total += added
	return added, nil
}

// Total returns the number of edges appended so far.
func (ar *AppendReader) Total() int { return ar.total }

// ParseEdgeLine parses one line of an edge stream in the formats accepted
// by AppendReader (NDJSON or whitespace text). ok is false for blank and
// comment lines, which carry no edge. Tools tailing streams themselves
// (for example to bootstrap a graph before switching to an AppendReader)
// share the format through this function.
func ParseEdgeLine(line string) (e Edge, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' || line[0] == '%' {
		return Edge{}, false, nil
	}
	e, err = parseEdgeLine(line)
	return e, err == nil, err
}

func parseEdgeLine(line string) (Edge, error) {
	if line[0] == '{' {
		var rec struct {
			U *int64 `json:"u"`
			V *int64 `json:"v"`
			T *int64 `json:"t"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return Edge{}, fmt.Errorf("bad NDJSON edge: %w", err)
		}
		if rec.U == nil || rec.V == nil || rec.T == nil {
			return Edge{}, fmt.Errorf("NDJSON edge needs \"u\", \"v\" and \"t\" fields")
		}
		return Edge{U: *rec.U, V: *rec.V, Time: *rec.T}, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Edge{}, fmt.Errorf("want >= 3 columns (u v t), got %d", len(fields))
	}
	tcol := 2
	if len(fields) >= 4 {
		tcol = 3 // KONECT style "u v w t"
	}
	u, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Edge{}, fmt.Errorf("bad vertex %q: %v", fields[0], err)
	}
	v, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Edge{}, fmt.Errorf("bad vertex %q: %v", fields[1], err)
	}
	t, err := strconv.ParseInt(fields[tcol], 10, 64)
	if err != nil {
		return Edge{}, fmt.Errorf("bad timestamp %q: %v", fields[tcol], err)
	}
	return Edge{U: u, V: v, Time: t}, nil
}

// Watcher is a live view of the temporal k-cores in a sliding window at
// the graph's time frontier. After each append it re-targets the window to
// the trailing Span raw timestamps and patches its CoreTime tables
// incrementally (internal/dyn) instead of rebuilding them, so per-batch
// refresh cost follows the size of the change, not the history.
//
// Concurrency: a Watcher separates one writer from many readers. Append
// (and implicit stale-repair) is writer-side — one goroutine at a time,
// the same one that appends the graph. Query and Window are the read
// path: they are safe from any number of goroutines concurrently with
// the writer, and in steady state they are lock-free — each query pins
// the current refcounted table view (built against a published graph
// epoch) with one atomic operation, serves from it even if the writer
// publishes newer views meanwhile, and releases it when done; a retired
// view's arena is recycled when its last reader drains. Readers observe
// batches atomically (a query sees a batch entirely or not at all) with
// monotone visibility.
//
// The one exception to lock-freedom is repairing staleness caused by
// appends that bypassed the watcher (direct Graph.Append): a reader then
// patches the tables itself under the writer lock, which is only safe when
// no concurrent writer exists — under concurrent serving, route every
// append through Watcher.Append.
type Watcher struct {
	g    *Graph
	k    int
	span int64
	dix  *dyn.Index

	// mu is the writer lock: it serialises Append, explicit refreshes and
	// reader-side stale repair. The steady-state read path never takes it.
	mu sync.Mutex
}

// WatchStats counts how the watcher's refreshes were served.
type WatchStats struct {
	Patches  int // incremental patched refreshes
	Rebuilds int // full table rebuilds (the initial build included)
	Noops    int // refreshes that found the tables current
	// CacheAdopts counts refreshes served straight from the graph's
	// serving cache: the tables for the exact (epoch seq, k, window)
	// target were resident, so nothing was patched or rebuilt.
	CacheAdopts int

	PatchTime   time.Duration
	RebuildTime time.Duration
}

// Watch creates a live view of the temporal k-cores in the trailing span
// raw timestamps (for example, span=3600 on second-resolution data watches
// the last hour). span <= 0 watches the entire history.
//
// Watch is writer-side: on a live graph it publishes the current state as
// an epoch (see Publish) and binds the initial table view to it, so
// concurrent readers never touch the mutable graph.
func (g *Graph) Watch(k int, span int64) (*Watcher, error) {
	if k < 1 {
		return nil, fmt.Errorf("temporalkcore: k must be >= 1, got %d", k)
	}
	w := &Watcher{g: g, k: k, span: span}
	at := g.g
	if !at.Frozen() {
		at = g.Publish().Graph.g
	}
	dix, err := dyn.New(at, k, w.targetAt(at))
	if err != nil {
		return nil, err
	}
	// The watcher and the one-shot/prepared/batch paths share the graph's
	// serving cache: refreshes insert their patched tables (and adopt
	// resident entries), so snapshot queries on the watch window skip
	// their CoreTime phase, and reader-side repairs reuse builds done by
	// anyone else.
	dix.SetCache(g.cache())
	w.dix = dix
	return w, nil
}

// targetAt is the compressed window covered by the watch span on graph
// state tg (the live graph under the writer lock, or a frozen epoch).
func (w *Watcher) targetAt(tg *tgraph.Graph) tgraph.Window {
	if w.span <= 0 {
		return tg.FullWindow()
	}
	maxRaw := tg.RawTime(tg.TMax())
	s := tg.RankCeil(maxRaw - w.span + 1)
	if s < 1 {
		s = 1
	}
	return tgraph.Window{Start: s, End: tg.TMax()}
}

// Append appends a batch of edges to the underlying graph (see
// Graph.Append), publishes the new state as the graph's latest epoch and
// refreshes the view to the new time frontier. Readers keep serving the
// previous epoch lock-free until the refreshed view is published, then
// pick up the new one — they never block on the writer and never see a
// partially applied batch.
func (w *Watcher) Append(edges ...Edge) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.g.Append(edges...)
	if err != nil || n == 0 {
		return n, err
	}
	ep := w.g.Publish()
	return n, w.dix.RefreshAt(ep.Graph.g, w.targetAt(ep.Graph.g), nil)
}

// acquireView pins the current table view for a reader, returning the
// release closure the reader must call when done. The fast path — the view
// is current — is lock-free. A stale view (the graph advanced without the
// watcher noticing, i.e. a direct Graph.Append) is repaired under the
// writer lock first; while a concurrent writer holds that lock the reader
// instead serves the still-published previous epoch rather than blocking.
// stop cancels a repair patch mid-settle (the caller maps vct.ErrStopped
// to its context error).
func (w *Watcher) acquireView(stop func() bool) (*dyn.View, func(), error) {
	for {
		v, release := w.dix.Acquire()
		if v.Seq == w.g.g.MutSeq() {
			return v, release, nil
		}
		if w.mu.TryLock() {
			release()
		} else {
			// A writer is mid-append or mid-refresh. Its batch becomes
			// visible when it publishes; snapshot isolation lets us serve
			// the current epoch-bound view meanwhile.
			if v.G.Frozen() {
				return v, release, nil
			}
			// The view is bound to the mutable graph (never-published
			// usage): wait for the writer rather than race it.
			release()
			w.mu.Lock()
		}
		// Under the writer lock: repair if still stale, then retry. The
		// repair publishes the graph's current state as a fresh epoch and
		// binds the new view to it, never to the mutable graph — a view
		// published here must stay safe for fast-path readers even if the
		// caller later goes concurrent.
		var err error
		if w.dix.StaleAt(w.g.g, w.targetAt(w.g.g)) {
			at := w.g.g
			if !at.Frozen() {
				at = w.g.Publish().Graph.g
			}
			err = w.dix.RefreshAt(at, w.targetAt(at), stop)
		}
		w.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
}

// K returns the watched core parameter.
func (w *Watcher) K() int { return w.k }

// Span returns the watched raw-time span (0 = entire history).
func (w *Watcher) Span() int64 { return w.span }

// Window returns the raw time range the view currently covers. Like the
// query methods it serves from the pinned view, so it is safe for
// concurrent use with the writer.
func (w *Watcher) Window() (start, end int64, err error) {
	v, release, err := w.acquireView(nil)
	if err != nil {
		return 0, 0, err
	}
	defer release()
	start, end = v.G.RawWindow(v.W)
	return start, end, nil
}

// Stats returns counters describing how refreshes were served; a healthy
// streaming workload shows mostly patches. It takes the writer lock
// briefly, so it may be called from any goroutine.
func (w *Watcher) Stats() WatchStats {
	w.mu.Lock()
	st := w.dix.Stats()
	w.mu.Unlock()
	return WatchStats{
		Patches:     st.Patches,
		Rebuilds:    st.Rebuilds,
		Noops:       st.Noops,
		CacheAdopts: st.CacheAdopts,
		PatchTime:   st.PatchTime,
		RebuildTime: st.RebuildTime,
	}
}
