package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/serve"
	"temporalkcore/internal/tgraph"
)

const (
	appendBatch    = 10                    // edges per /v1/append batch
	appendInterval = 10 * time.Millisecond // open-loop writer period: 1000 edges/s
	initialShards  = 4                     // shards the bootstrap history is cut into
	probeDuration  = 6 * time.Second       // how long the writer runs
	probeQueries   = 6                     // sharded queries checked after the writer
	trailingPct    = 2                     // their width, in percent of tmax
	writerReq      = 1 << 40               // request-id offset of the writer's spans
)

// ingestRig is a durable sharded graph bootstrapped from the replica's
// earlier part and served on a loopback listener; the writer replays the
// later part into it. Traced runs add twins that receive the same batches
// in process: a second durable sharded graph (the store layer) and an
// in-memory unsharded graph (the tgraph and epoch layers).
type ingestRig struct {
	r           *run
	boot, later []tkc.Edge
	sealEvery   int

	dir string
	sg  *tkc.ShardedGraph
	lb  *loopback

	bootBytes, bootWAL int64
	bootShards         int

	twinDir string
	twinSG  *tkc.ShardedGraph
	twinG   *tkc.Graph
}

func (g *ingestRig) opts() tkc.ShardOptions {
	return tkc.ShardOptions{Shards: initialShards, MaxShardEdges: g.sealEvery}
}

// newIngestRig bootstraps the data directory from the replica's earlier
// part and starts the server.
func newIngestRig(r *run) (*ingestRig, error) {
	// The seed picks the split between 45% and 50% of the replica.
	n := len(r.in.edges)
	split := n*45/100 + rand.New(rand.NewSource(r.in.seed)).Intn(n/20+1)
	g := &ingestRig{r: r, boot: r.in.edges[:split], later: r.in.edges[split:]}
	// At paper scale, a seal about every two seconds of writing.
	g.sealEvery = max(len(g.later)/15, 2*appendBatch)
	dir, err := os.MkdirTemp(r.cfg.root, "ingest-")
	if err != nil {
		return nil, err
	}
	g.dir = dir
	if g.sg, err = tkc.BootstrapShardedDir(dir, g.boot, g.opts()); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(serve.Config{Sharded: g.sg, EpochRetain: 64, AppendBatch: appendBatch})
	if g.lb, err = startLoopback(srv, 2); err != nil {
		g.sg.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	g.bootShards = g.sg.NumShards()
	if g.bootBytes, err = dirBytes(dir, "*"); err == nil {
		g.bootWAL, err = dirBytes(dir, "wal-*")
	}
	if err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// addTwins creates the in-process twins of a traced run.
func (g *ingestRig) addTwins() error {
	dir, err := os.MkdirTemp(g.r.cfg.root, "twin-")
	if err != nil {
		return err
	}
	g.twinDir = dir
	if g.twinSG, err = tkc.BootstrapShardedDir(dir, g.boot, g.opts()); err != nil {
		return err
	}
	if g.twinG, err = tkc.NewGraph(g.boot); err != nil {
		return err
	}
	g.twinG.Publish()
	return nil
}

// close stops the server and removes the data directories.
func (g *ingestRig) close() error {
	err := g.lb.close()
	if cerr := g.sg.Close(); err == nil {
		err = cerr
	}
	if g.twinSG != nil {
		if cerr := g.twinSG.Close(); err == nil {
			err = cerr
		}
	}
	for _, d := range []string{g.dir, g.twinDir} {
		if d == "" {
			continue
		}
		if rerr := os.RemoveAll(d); err == nil {
			err = rerr
		}
	}
	return err
}

// writerStats are the open-loop writer's observations.
type writerStats struct {
	lat      samples // from due time to acknowledgement
	appended int
}

// write replays the later part as /v1/append batches, one every
// appendInterval from start, until the edges run out or a batch would be
// due at or after until. In a traced run every batch also goes to the
// twins.
func (g *ingestRig) write(start, until time.Time, st *writerStats) {
	r := g.r
	var buf []byte
	for i := 0; i*appendBatch < len(g.later); i++ {
		due := start.Add(time.Duration(i) * appendInterval)
		if !due.Before(until) {
			return
		}
		// Sleep until just before the batch is due, then spin: a timer
		// can fire up to a millisecond late, which would otherwise be
		// charged to every append.
		if d := time.Until(due) - time.Millisecond; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		batch := g.later[i*appendBatch : min((i+1)*appendBatch, len(g.later))]
		req := int64(writerReq + i)
		late := time.Since(due)
		root, span := -1, -1
		if r.cfg.trace {
			root = r.tr.begin("probe.append", -1, req)
			span = r.tr.begin("loadgen.append", root, req)
		}
		added, b, err := g.lb.appendEdges(buf, batch)
		buf = b
		r.tr.end(span)
		st.lat.add(time.Since(due))
		if r.check(err == nil && added == len(batch), "append batch %d: added %d of %d: %v", i, added, len(batch), err) {
			st.appended += added
		}
		if r.cfg.trace {
			g.twinAppend(batch, root, req)
			r.add("loadgen.late_ms", ms(late))
		}
		r.tr.end(root)
	}
}

// twinAppend applies one batch to the twins: ShardedGraph.Append on the
// durable sharded twin (the store layer, seals included), then Graph.Append
// and Graph.Publish on the in-memory one.
func (g *ingestRig) twinAppend(batch []tkc.Edge, parent int, req int64) {
	r := g.r
	shards := g.twinSG.NumShards()
	var err error
	d := r.timed("store.append", parent, req, func() { _, err = g.twinSG.Append(batch...) })
	r.check(err == nil, "sharded twin append: %v", err)
	if g.twinSG.NumShards() > shards {
		r.add("store.seal_ms", ms(d))
	}
	r.timed("tgraph.append", parent, req, func() { _, err = g.twinG.Append(batch...) })
	r.check(err == nil, "in-memory twin append: %v", err)
	r.timed("epoch.publish", parent, req, func() { g.twinG.Publish() })
}

// finishWriter checks the final graph and sets the append, disk and store
// metrics.
func (g *ingestRig) finishWriter(st *writerStats) error {
	r := g.r
	edges := g.sg.Spine().NumEdges()
	r.check(edges == len(g.boot)+st.appended, "graph holds %d edges after appending %d to %d", edges, st.appended, len(g.boot))
	// Append latencies are only recorded: at half a millisecond per append
	// they move with every stall of the host's CPUs, too much to gate on.
	r.note("append_p50_ms", median(st.lat))
	r.note("append_p90_ms", quantile(st.lat, 0.9))
	r.note("append_samples", len(st.lat))
	r.set("store.seals", float64(g.sg.NumShards()-g.bootShards))
	if st.appended == 0 {
		return nil
	}
	all, err := dirBytes(g.dir, "*")
	if err != nil {
		return err
	}
	wal, err := dirBytes(g.dir, "wal-*")
	if err != nil {
		return err
	}
	r.set("disk_bytes_per_edge", float64(all-g.bootBytes)/float64(st.appended))
	r.set("store.wal_bytes_per_edge", float64(wal-g.bootWAL)/float64(st.appended))
	return nil
}

// probeWindow is the i-th window the probe queries on view v: trailingPct%
// of the replica's tmax wide (in timestamp ranks, like the paper's range
// parameter), ending i half-widths before the view's newest timestamp, so
// the windows slide back across the newest sealed cuts.
func (g *ingestRig) probeWindow(v *tkc.ShardedView, i int) rawWindow {
	tg := v.Snapshot().Internal()
	width := max(g.r.in.d.G.TMax()*trailingPct/100, 2)
	hi := max(tg.TMax()-tgraph.TS(i)*width/2, width)
	return rawWindow{tg.RawTime(hi - width + 1), tg.RawTime(hi)}
}

// probeShards checks served sharded answers on the latest view: each
// window is queried over HTTP pinned to the view's epoch, and the trailer
// must match the in-process sharded and unsharded counts on that view.
func (g *ingestRig) probeShards() {
	r := g.r
	v := g.sg.Latest()
	for i := 0; i < probeQueries; i++ {
		w := g.probeWindow(v, i)
		req := int64(writerReq/2 + i)
		root := r.tr.begin("probe.request", -1, req)
		span := r.tr.begin("loadgen.query", root, req)
		rep, err := g.lb.query(queryBody(r.in.k, w, "count", 0, v.Seq()))
		r.tr.end(span)
		if r.check(err == nil && rep.stats.Epoch == v.Seq() && rep.stats.Shards >= 1,
			"sharded query on epoch %d: epoch %d, %d shards: %v", v.Seq(), rep.stats.Epoch, rep.stats.Shards, err) {
			if base, ok := r.shardLayers(v, w, root, req); ok {
				r.check(base.Cores == rep.stats.Cores && base.Edges == rep.stats.Edges,
					"served sharded count %d / %d, unsharded %d / %d", rep.stats.Cores, rep.stats.Edges, base.Cores, base.Edges)
			}
		}
		r.tr.end(root)
	}
}

// appendProbe gives each workload its append and disk metrics, and in
// traced runs the store, tgraph, epoch, shard and loadgen layers: the
// open-loop writer runs alone for probeDuration (at most the run's length)
// against a fresh rig, then sharded queries on the grown graph are checked
// against unsharded ones. It runs after the workload has released its
// state, from a fresh GC cycle, so that what the workload left on the heap
// does not set the appends' GC costs.
func (r *run) appendProbe() (err error) {
	g, err := newIngestRig(r)
	if err != nil {
		return fmt.Errorf("append probe: %w", err)
	}
	defer func() {
		if cerr := g.close(); err == nil {
			err = cerr
		}
	}()
	if r.cfg.trace {
		if err := g.addTwins(); err != nil {
			return err
		}
	}
	var st writerStats
	runtime.GC()
	start := time.Now()
	g.write(start, start.Add(min(probeDuration, time.Duration(r.cfg.seconds*float64(time.Second)))), &st)
	if err := g.finishWriter(&st); err != nil {
		return err
	}
	g.probeShards()
	return nil
}
