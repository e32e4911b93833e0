package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/serve"
)

// runServe is the serve subcommand: the HTTP serving layer over Query API
// v2. It loads (or waits for /v1/append to bootstrap) a graph, binds the
// listener, prints the bound address — so scripts can use -addr :0 — and
// serves until SIGINT/SIGTERM, then drains in-flight streams.
func runServe(args []string) {
	fs := flag.NewFlagSet("tkc serve", flag.ExitOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8177", "listen address (host:port; port 0 picks a free port)")
		graphPath     = fs.String("graph", "", "temporal edge list file to serve (empty: bootstrap from the first /v1/append)")
		cacheMB       = fs.Int("cache-mb", 64, "serving-cache budget in MiB (0 disables)")
		maxInflight   = fs.Int("max-inflight", 0, "max concurrent query/append requests (0 = 8 per CPU); excess gets 503")
		admissionWait = fs.Duration("admission-wait", 10*time.Millisecond, "how long a request may wait for an admission slot before 503")
		deadline      = fs.Duration("deadline", 30*time.Second, "default per-query deadline (overridable per request via deadlineMs)")
		maxDeadline   = fs.Duration("max-deadline", 5*time.Minute, "cap on per-request deadlines")
		batch         = fs.Int("batch", 1024, "append: edges per batch (one epoch published per batch)")
		epochRetain   = fs.Int("epoch-retain", 8, "recently published epochs kept addressable via the epoch request field")
		drain         = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget for in-flight streams")
		dataDir       = fs.String("data", "", "data directory for durability: WAL-logged appends, snapshots, warm restarts")
		snapEvery     = fs.Duration("snapshot-every", 0, "background snapshot interval with -data (0: only on shutdown and POST /v1/snapshot)")
		shards        = fs.Int("shards", 0, "serve time-range shards: initial partition count (0: unsharded; requires -graph or a sharded -data dir)")
		maxShardEdges = fs.Int("max-shard-edges", 0, "auto-seal the frontier shard once it holds this many edges (0: manual/initial partition only)")
	)
	fs.Parse(args)

	cfg := serve.Config{
		Cache:           &tkc.CacheOptions{MaxBytes: int64(*cacheMB) << 20, Disable: *cacheMB <= 0},
		MaxInFlight:     *maxInflight,
		AdmissionWait:   *admissionWait,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		AppendBatch:     *batch,
		EpochRetain:     *epochRetain,
	}
	var durable *tkc.DurableGraph
	var sharded *tkc.ShardedGraph
	if *shards > 0 {
		so := tkc.ShardOptions{Shards: *shards, MaxShardEdges: *maxShardEdges}
		switch {
		case *dataDir != "":
			sg, err := tkc.OpenShardedDir(*dataDir, so)
			if err != nil && *graphPath != "" {
				// Not an openable sharded directory; bootstrap it from the
				// edge file (fails loudly when the directory is non-empty).
				edges, lerr := loadEdgeFile(*graphPath)
				if lerr != nil {
					log.Fatal(lerr)
				}
				sg, lerr = tkc.BootstrapShardedDir(*dataDir, edges, so)
				if lerr != nil {
					log.Fatalf("open sharded %s: %v; bootstrap from %s: %v", *dataDir, err, *graphPath, lerr)
				}
				fmt.Printf("serve: bootstrapped sharded %s from %s: %d shards, %d edges\n",
					*dataDir, *graphPath, sg.NumShards(), sg.Spine().NumEdges())
			} else if err != nil {
				log.Fatalf("open sharded %s: %v (an empty directory needs -graph to bootstrap)", *dataDir, err)
			} else {
				if *graphPath != "" {
					log.Printf("serve: %s already holds a graph; ignoring -graph", *dataDir)
				}
				fmt.Printf("serve: recovered sharded %s at seq %d: %d shards, %d edges\n",
					*dataDir, sg.Latest().Seq(), sg.NumShards(), sg.Spine().NumEdges())
			}
			sharded = sg
		case *graphPath != "":
			g, err := tkc.LoadFile(*graphPath)
			if err != nil {
				log.Fatal(err)
			}
			sg, err := tkc.ShardGraph(g, so)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("serve: graph %s in %d time-range shards: %d vertices, %d edges\n",
				*graphPath, sg.NumShards(), g.NumVertices(), g.NumEdges())
			sharded = sg
		default:
			log.Fatal("serve: -shards needs -graph or a sharded -data directory")
		}
		cfg.Sharded = sharded
	} else if *dataDir != "" {
		d, err := tkc.OpenDir(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		durable = d
		cfg.Durable = d
		switch {
		case d.Graph() != nil:
			if *graphPath != "" {
				log.Printf("serve: %s already holds a graph (seq %d); ignoring -graph", *dataDir, d.Seq())
			}
			fmt.Printf("serve: recovered %s at seq %d: %d vertices, %d edges, %d warm cache entries\n",
				*dataDir, d.Seq(), d.Graph().NumVertices(), d.Graph().NumEdges(), d.WarmEntries())
		case *graphPath != "":
			edges, err := loadEdgeFile(*graphPath)
			if err != nil {
				log.Fatal(err)
			}
			g, err := d.Bootstrap(edges)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("serve: bootstrapped %s from %s: %d vertices, %d edges\n",
				*dataDir, *graphPath, g.NumVertices(), g.NumEdges())
		default:
			fmt.Printf("serve: %s is empty; waiting for the first POST /v1/append to bootstrap\n", *dataDir)
		}
	} else if *graphPath != "" {
		g, err := tkc.LoadFile(*graphPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Graph = g
		lo, hi := g.TimeSpan()
		fmt.Printf("serve: graph %s: %d vertices, %d edges, %d distinct timestamps in [%d, %d]\n",
			*graphPath, g.NumVertices(), g.NumEdges(), g.TimestampCount(), lo, hi)
	} else {
		fmt.Println("serve: no graph loaded; waiting for the first POST /v1/append to bootstrap")
	}

	s := serve.New(cfg)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The listening line is a contract: smoke scripts and tests parse the
	// bound address from it (so -addr :0 works).
	fmt.Printf("serve: listening on http://%s\n", l.Addr())
	os.Stdout.Sync()

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()

	// Background snapshot cadence: the cut is cheap (copy-on-write freeze +
	// WAL rotation) and the serialization runs off the writer path, so the
	// timer never stalls appends.
	stopSnap := make(chan struct{})
	if (durable != nil || (sharded != nil && sharded.Durable())) && *snapEvery > 0 {
		go func() {
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if seq, err := s.Snapshot(); err == nil {
						fmt.Printf("serve: snapshot at seq %d\n", seq)
					}
				case <-stopSnap:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	case <-sig:
		fmt.Println("serve: shutting down, draining in-flight streams")
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		<-errc
	}
	close(stopSnap)
	if sharded != nil {
		if sharded.Durable() {
			// Final snapshot (spine only — the shard manifest is already
			// durable) so the next start recovers without WAL replay.
			if seq, err := s.Snapshot(); err != nil {
				log.Printf("final snapshot: %v", err)
			} else {
				fmt.Printf("serve: final snapshot at seq %d\n", seq)
			}
		}
		if err := sharded.Close(); err != nil {
			log.Printf("closing sharded graph: %v", err)
		}
	}
	if durable != nil {
		// Final snapshot so the next start recovers without WAL replay and
		// with a warm cache spill of the state being served right now.
		if durable.Graph() != nil {
			if seq, err := s.Snapshot(); err != nil {
				log.Printf("final snapshot: %v", err)
			} else {
				fmt.Printf("serve: final snapshot at seq %d\n", seq)
			}
		}
		if err := durable.Close(); err != nil {
			log.Printf("closing %s: %v", *dataDir, err)
		}
	}
	fmt.Println("serve: bye")
}
