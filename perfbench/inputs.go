package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/bench"
	"temporalkcore/internal/tgraph"
)

// replicaSeed fixes the CM replica. Replicas generated from different
// seeds differ several-fold in query cost, which would drown any change
// between two commits in the choice of seed; the run seed varies what is
// asked of the one replica instead.
const replicaSeed = 42

// paperEdges is the size of the paper's CM (CollegeMsg) dataset.
const paperEdges = 59835

// inputs are everything a workload derives from the run seed: the query
// k (30% of kmax, the paper's Figure 6 setting) and, through the seed, its
// query windows, request mixes and the ingest split, all over one CM
// replica and its edge list in time order.
type inputs struct {
	seed  int64
	d     *bench.Dataset
	edges []tkc.Edge
	k     int
}

func loadInputs(seed int64, n int) (*inputs, error) {
	d, err := bench.LoadDataset("CM", n, replicaSeed)
	if err != nil {
		return nil, fmt.Errorf("load CM replica: %w", err)
	}
	tg := d.G
	edges := make([]tkc.Edge, tg.NumEdges())
	for i := range edges {
		e := tg.Edge(tgraph.EID(i))
		edges[i] = tkc.Edge{U: tg.Label(e.U), V: tg.Label(e.V), Time: tg.RawTime(e.T)}
	}
	return &inputs{
		seed:  seed,
		d:     d,
		edges: edges,
		k:     d.K(30),
	}, nil
}

// rawWindow is a query range in raw timestamps.
type rawWindow struct{ lo, hi int64 }

// windows draws n distinct ranges of 10% of tmax that each contain a k-core
// (the paper's Figure 6 setting), in draw order. It may return fewer on a
// small replica.
func (in *inputs) windows(n int, salt int64) []rawWindow {
	seen := make(map[tgraph.Window]bool)
	var out []rawWindow
	for _, w := range in.d.Queries(in.k, 10, n, in.seed*7919+salt) {
		if seen[w] {
			continue
		}
		seen[w] = true
		lo, hi := in.d.G.RawWindow(w)
		out = append(out, rawWindow{lo, hi})
	}
	return out
}

// fixedWindows draws n distinct windows like windows, but from a fixed
// seed: the same for every run seed.
func (in *inputs) fixedWindows(n int) []rawWindow {
	fixed := *in
	fixed.seed = replicaSeed
	return fixed.windows(n, 0)
}

// errShort reports a workload that had no inputs to run.
var errShort = errors.New("no query windows: replica too small")

// queryBody is a /v1/query body. project is "count" or "edges"; earlyStop
// 0 means no limit; epoch < 0 leaves the epoch unpinned.
func queryBody(k int, w rawWindow, project string, earlyStop int, epoch int64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"k":%d,"start":%d,"end":%d,"project":%q`, k, w.lo, w.hi, project)
	if earlyStop > 0 {
		fmt.Fprintf(&b, `,"earlyStop":%d`, earlyStop)
	}
	if epoch >= 0 {
		fmt.Fprintf(&b, `,"epoch":%d`, epoch)
	}
	b.WriteString("}")
	return []byte(b.String())
}

// edgeLines renders edges in the text append format, one "u v t" line each.
func edgeLines(dst []byte, edges []tkc.Edge) []byte {
	for _, e := range edges {
		dst = strconv.AppendInt(dst, e.U, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, e.V, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, e.Time, 10)
		dst = append(dst, '\n')
	}
	return dst
}

// repeatSetup runs setup n times, closing each instance before the next,
// and returns the median set-up time and the closer of the last instance,
// which stays up for the measurement.
func repeatSetup(n int, setup func() (func() error, error)) (time.Duration, func() error, error) {
	var times []time.Duration
	var closer func() error
	for i := 0; i < n; i++ {
		if closer != nil {
			if err := closer(); err != nil {
				return 0, nil, err
			}
		}
		runtime.GC()
		t := time.Now()
		c, err := setup()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t))
		closer = c
	}
	return medianDur(times), closer, nil
}

// dirBytes sums the sizes of the regular files under dir whose names match
// the glob pattern ("*" for all).
func dirBytes(dir, pattern string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			return nil
		}
		if ok, _ := filepath.Match(pattern, e.Name()); !ok {
			return nil
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// memSnap is a reading of the runtime's allocation and GC counters.
type memSnap struct {
	alloc, mallocs, pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.Mallocs, m.PauseTotalNs}
}

// runtimeMetrics sets the runtime layer's per-query metrics from two
// counter readings taken around n queries.
func (r *run) runtimeMetrics(before, after memSnap, n int) {
	if n == 0 {
		return
	}
	r.set("runtime.alloc_bytes_per_query", float64(after.alloc-before.alloc)/float64(n))
	r.set("runtime.allocs_per_query", float64(after.mallocs-before.mallocs)/float64(n))
	r.set("runtime.gc_pause_ms", ms(time.Duration(after.pauseNs-before.pauseNs))/float64(n))
}

// heapLive sets heap_live_mb: the live heap after full GCs, taken while
// the workload's state is still reachable. The second GC also drops what
// the first moved to the sync.Pool victim caches.
func (r *run) heapLive() {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("heap_live_mb", float64(m.HeapAlloc)/(1<<20))
}

// cacheDelta sets the qcache layer's counters over an interval.
func (r *run) cacheDelta(before, after tkc.CacheStats) {
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	lookups := float64(hits + misses)
	r.set("qcache.hit_ratio", ratio(float64(hits), lookups))
	r.set("qcache.miss_ratio", ratio(float64(misses), lookups))
	r.set("qcache.evictions", float64(after.Evictions-before.Evictions))
	r.set("qcache.retired", float64(after.Retired-before.Retired))
}
