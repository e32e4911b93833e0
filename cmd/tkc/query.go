package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	tkc "temporalkcore"
)

// runQuery is the query subcommand (and the legacy bare-flag mode): one-shot
// and batch queries on an edge-list file, or -follow streaming ingest.
func runQuery(args []string) {
	fs := flag.NewFlagSet("tkc query", flag.ExitOnError)
	var (
		graphPath = fs.String("graph", "", "temporal edge list file (u v t per line)")
		k         = fs.Int("k", 2, "core parameter k")
		start     = fs.Int64("start", math.MinInt64, "query range start (raw timestamp, default: whole graph)")
		end       = fs.Int64("end", math.MaxInt64, "query range end (raw timestamp, default: whole graph)")
		algoName  = fs.String("algo", "enum", "algorithm: enum, base, or otcd")
		countOnly = fs.Bool("count", false, "only count results")
		limit     = fs.Int("limit", 0, "stop after this many cores (0 = all)")
		quiet     = fs.Bool("q", false, "do not print per-core edge lists")
		ks        = fs.String("ks", "", "comma-separated k values run as one parallel batch (overrides -k)")
		parallel  = fs.Int("parallel", -1, "batch worker-pool size for -ks (-1 = all CPUs)")
		follow    = fs.Bool("follow", false, "tail an edge stream from stdin and report trailing-window cores per batch")
		span      = fs.Int64("span", 0, "follow: trailing window span in raw time units (0 = entire history)")
		every     = fs.Int("every", 1000, "follow: append batch size in edges")
		readers   = fs.Int("readers", 0, "follow: serve this many concurrent query readers during ingest (0 = report inline only)")
		cacheMB   = fs.Int("cache-mb", 64, "serving-cache budget in MiB for repeated (epoch, k, window) queries (0 disables)")
	)
	fs.Parse(args)

	cacheOpts := tkc.CacheOptions{MaxBytes: int64(*cacheMB) << 20, Disable: *cacheMB <= 0}

	if *follow {
		runFollow(*graphPath, *k, *span, *every, *readers, cacheOpts)
		return
	}
	if *graphPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	algo, err := tkc.ParseAlgorithm(*algoName)
	if err != nil {
		log.Fatalf("unknown algorithm %q (want enum, base, or otcd)", *algoName)
	}

	g, err := tkc.LoadFile(*graphPath)
	if err != nil {
		log.Fatal(err)
	}
	g.SetCacheOptions(cacheOpts)
	lo, hi := g.TimeSpan()
	fmt.Printf("graph: %d vertices, %d edges, %d distinct timestamps in [%d, %d], kmax=%d\n",
		g.NumVertices(), g.NumEdges(), g.TimestampCount(), lo, hi, g.KMax())

	// Ctrl-C cancels the running query through the v2 context plumbing:
	// both phases poll the context and return promptly with partial output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *ks != "" {
		runBatch(ctx, g, *ks, *start, *end, algo, *parallel)
		return
	}

	req := g.Query(*k).Window(*start, *end).Algorithm(algo)
	if *countOnly {
		req.Project(tkc.ProjectCount)
	}
	if *limit > 0 {
		req.EarlyStop(*limit)
	}
	var qs tkc.QueryStats
	req.Stats(&qs)
	t0 := time.Now()
	n := 0
	for c, err := range req.Seq(ctx) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Printf("\ninterrupted after %d cores\n", n)
				break
			}
			log.Fatal(err)
		}
		n++
		if !*countOnly {
			printCore(n, c, *quiet)
		}
	}
	fmt.Printf("\n%d distinct temporal %d-cores, |R|=%d edges, |VCT|=%d, |ECS|=%d, %.3fs (core %.3fs + enum %.3fs, %s)\n",
		qs.Cores, *k, qs.Edges, qs.VCTSize, qs.ECSSize, time.Since(t0).Seconds(),
		qs.CoreTime.Seconds(), qs.EnumTime.Seconds(), *algoName)
}

// runBatch executes one query per k value over the same range as a parallel
// batch and prints a per-k summary. Only the counts are reported, so the
// batch always runs in count-only mode regardless of -count: materialising
// every core of every k just to discard it could exhaust memory on large
// graphs.
func runBatch(ctx context.Context, g *tkc.Graph, ks string, start, end int64, algo tkc.Algorithm, parallel int) {
	var reqs []*tkc.Request
	var kvals []int
	for _, f := range strings.Split(ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad -ks entry %q: %v", f, err)
		}
		kvals = append(kvals, k)
		reqs = append(reqs, g.Query(k).Window(start, end).Algorithm(algo).Project(tkc.ProjectCount))
	}
	t0 := time.Now()
	res := g.RunBatch(ctx, reqs, tkc.BatchOptions{Parallelism: parallel})
	wall := time.Since(t0)
	fmt.Printf("\n%6s %10s %12s %8s %8s %10s %10s\n", "k", "cores", "|R|", "|VCT|", "|ECS|", "core(s)", "enum(s)")
	for i, r := range res {
		if r.Cancelled {
			fmt.Printf("%6d interrupted\n", kvals[i])
			continue
		}
		if r.Err != nil {
			fmt.Printf("%6d error: %v\n", r.Spec.K, r.Err)
			continue
		}
		fmt.Printf("%6d %10d %12d %8d %8d %10.3f %10.3f\n",
			r.Spec.K, r.Stats.Cores, r.Stats.Edges, r.Stats.VCTSize, r.Stats.ECSSize,
			r.Stats.CoreTime.Seconds(), r.Stats.EnumTime.Seconds())
	}
	fmt.Printf("batch of %d queries in %.3fs wall\n", len(reqs), wall.Seconds())
}

// runFollow tails an edge stream from stdin. With -graph the stream
// appends to a loaded graph; otherwise the first -every edges bootstrap
// one. After each appended batch the trailing-window core count is
// refreshed through a Watcher, so the CoreTime tables are patched for the
// dirty time-suffix instead of rebuilt.
//
// With -readers N the command also serves queries concurrently with the
// ingest: N goroutines continuously run trailing-window count queries
// against the latest published epoch (each query pins the epoch published
// by the last batch), demonstrating snapshot-isolated serving — readers
// never block the appending writer and never see a half-applied batch.
// With the serving cache enabled (-cache-mb > 0), each batch's refreshed
// CoreTime tables are shared through the cache, so the readers' repeat
// queries on a hot window skip the CoreTime phase; the end-of-stream
// summary reports the hit rate alongside per-reader query counts and
// aggregate QPS.
func runFollow(graphPath string, k int, span int64, every, readers int, cacheOpts tkc.CacheOptions) {
	if every < 1 {
		every = 1
	}
	in := bufio.NewReaderSize(os.Stdin, 1<<16)

	var g *tkc.Graph
	var err error
	if graphPath != "" {
		if g, err = tkc.LoadFile(graphPath); err != nil {
			log.Fatal(err)
		}
	} else {
		var boot []tkc.Edge
		for len(boot) < every {
			line, rerr := in.ReadString('\n')
			if line != "" {
				e, ok, perr := tkc.ParseEdgeLine(line)
				if perr != nil {
					log.Fatalf("stdin: %v", perr)
				}
				if ok {
					boot = append(boot, e)
				}
			}
			if rerr != nil {
				break
			}
		}
		if len(boot) == 0 {
			log.Fatal("follow: no edges on stdin to bootstrap a graph (pipe a stream or pass -graph)")
		}
		if g, err = tkc.NewGraph(boot); err != nil {
			log.Fatal(err)
		}
	}
	g.SetCacheOptions(cacheOpts)
	w, err := g.Watch(k, span)
	if err != nil {
		log.Fatal(err)
	}
	report := func(appended int, total int) {
		t0 := time.Now()
		qs, err := w.Query().Count(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		ws, we, err := w.Window()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("+%5d edges (total %8d): window [%d,%d] %d-cores=%d |R|=%d refresh+count %.1fms\n",
			appended, total, ws, we, k, qs.Cores, qs.Edges, float64(time.Since(t0).Microseconds())/1000)
	}
	report(g.NumEdges(), g.NumEdges())

	// Concurrent serving: readers hammer the watcher's lock-free read path
	// while the loop below keeps appending.
	ctx, stopServe := context.WithCancel(context.Background())
	var served sync.WaitGroup
	queries := make([]int64, readers)
	serveStart := time.Now()
	for ri := 0; ri < readers; ri++ {
		served.Add(1)
		go func(ri int) {
			defer served.Done()
			for ctx.Err() == nil {
				// Query the latest published epoch's trailing window as a
				// one-shot snapshot request: it resolves to the same
				// (epoch seq, k, window) key the watcher's refresh
				// inserted, so under a hot window these queries are
				// serving-cache hits that skip the CoreTime phase. Before
				// the first publish, fall back to the watcher's pinned
				// view.
				var err error
				if s := g.Latest(); s != nil {
					slo, shi := s.TimeSpan()
					if span > 0 && shi-span+1 > slo {
						slo = shi - span + 1
					}
					_, err = s.Query(k).Window(slo, shi).Count(ctx)
				} else {
					_, err = w.Query().Count(ctx)
				}
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					log.Fatalf("reader %d: %v", ri, err)
				}
				queries[ri]++
			}
		}(ri)
	}

	ar := tkc.NewAppendReader(g, in)
	ar.BatchSize = every
	ar.Via = w // batches publish epochs, so the readers above stay isolated
	for {
		n, err := ar.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		report(n, g.NumEdges())
	}
	stopServe()
	served.Wait()
	st := w.Stats()
	fmt.Printf("stream done: %d edges appended, %d patched refreshes (%.1fms) / %d rebuilds (%.1fms) / %d cache adopts\n",
		ar.Total(), st.Patches, float64(st.PatchTime.Microseconds())/1000,
		st.Rebuilds, float64(st.RebuildTime.Microseconds())/1000, st.CacheAdopts)
	if readers > 0 {
		var total int64
		for _, q := range queries {
			total += q
		}
		secs := time.Since(serveStart).Seconds()
		fmt.Printf("served %d concurrent queries from %d readers during ingest (%.0f QPS, per-reader %v)\n",
			total, readers, float64(total)/secs, queries)
	}
	if !cacheOpts.Disable {
		cs := g.CacheStats()
		rate := 0.0
		if looked := cs.Hits + cs.Misses; looked > 0 {
			rate = 100 * float64(cs.Hits) / float64(looked)
		}
		fmt.Printf("cache: %d hits / %d misses (%.1f%% hit rate), %d singleflight-shared, %d evicted, %d retired, %d entries / %.1f MiB resident\n",
			cs.Hits, cs.Misses, rate, cs.SingleflightShared, cs.Evictions, cs.Retired,
			cs.Entries, float64(cs.Bytes)/(1<<20))
	}
}

func printCore(i int, c tkc.Core, quiet bool) {
	verts := map[int64]bool{}
	for _, e := range c.Edges {
		verts[e.U] = true
		verts[e.V] = true
	}
	vs := make([]int64, 0, len(verts))
	for v := range verts {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
	fmt.Printf("core %d: TTI=[%d,%d] %d vertices %d edges\n  vertices: %v\n", i, c.Start, c.End, len(vs), len(c.Edges), vs)
	if !quiet {
		fmt.Print("  edges:")
		for _, e := range c.Edges {
			fmt.Printf(" (%d,%d)@%d", e.U, e.V, e.Time)
		}
		fmt.Println()
	}
}
