// Command perfbench is the repository's benchmark. It runs one workload on
// inputs generated from a seed, checks every answer, and prints one JSON
// result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics, which it measures by timing calls into each layer's public
// functions on the same inputs. See README.md for the workloads and the
// definition of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of the system
// sees them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"r_edges_per_s", "1/s"},
	{"success_ratio", "ratio"},
	{"heap_live_mb", "MiB"},
	{"disk_bytes_per_edge", "bytes"},
}

// perLayer are the metrics of a traced run, one or more per layer.
var perLayer = []metricDef{
	{"vct.build_ms", "ms"},
	{"vct.index_entries", "count"},
	{"vct.ecs_entries", "count"},
	{"enum.enum_ms", "ms"},
	{"enum.ns_per_core", "ns"},
	{"enum.first_core_us", "us"},
	{"enum.speedup_vs_otcd", "x"},
	{"otcd.query_ms", "ms"},
	{"qcache.miss_ratio", "ratio"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.evictions", "count"},
	{"qcache.retired", "count"},
	{"qcache.overhead_ms", "ms"},
	{"temporalkcore.decode_us", "us"},
	{"temporalkcore.count_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.net_us", "us"},
	{"serve.response_bytes", "bytes"},
	{"serve.rejected", "count"},
	{"store.append_us", "us"},
	{"store.wal_bytes_per_edge", "bytes"},
	{"store.seals", "count"},
	{"store.seal_ms", "ms"},
	{"tgraph.append_us", "us"},
	{"epoch.publish_us", "us"},
	{"shard.query_ms", "ms"},
	{"shard.unsharded_query_ms", "ms"},
	{"shard.overhead_ratio", "ratio"},
	{"shard.spans_per_query", "count"},
	{"shard.patched_ratio", "ratio"},
	{"runtime.alloc_bytes_per_query", "bytes"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*run) error{
	"fig6-cold": runFig6,
	"serve-hot": runServeHot,
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	edges    int    // replica size: paperEdges, or fewer in the smoke test
	root     string // working directory for data directories and traces
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark run.
type run struct {
	cfg config
	in  *inputs
	tr  *tracer

	attempted, failed atomic.Int64
	failLog           atomic.Int64

	mu         sync.Mutex
	values     map[string]float64   // measured metrics by name
	samples    map[string][]float64 // per-layer samples; see add
	totals     map[string]float64   // per-layer counts; see addTotal
	unmeasured map[string]string    // metric name -> reason
	env        map[string]any
}

// check counts one attempted operation and, when ok is false, one failure,
// logging the first few failures to standard error.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
		if r.failLog.Add(1) <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
		}
	}
	return ok
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

func (r *run) note(key string, v any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.env[key] = v
}

// phases splits a measuring period. An untraced run measures all of it. A
// traced run spends the first 40% untraced, which gives the baseline for
// the tracing overhead and the window for the layers' counters, and the
// rest with spans on.
func (r *run) phases() (untraced, traced time.Duration) {
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	if !r.cfg.trace {
		return total, 0
	}
	a := total * 4 / 10
	return a, total - a
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fig6-cold or serve-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measuring time in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".bench_build", "directory for data directories and traces")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.edges = paperEdges

	res, env, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode environment:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(envLine))
	fmt.Println(string(out))
}

// execute runs one workload and assembles its result.
func execute(cfg config) (result, map[string]any, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, nil, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	hostBefore := hostSpeed()
	if err := os.MkdirAll(cfg.root, 0o755); err != nil {
		return result{}, nil, err
	}
	in, err := loadInputs(cfg.seed, cfg.edges)
	if err != nil {
		return result{}, nil, err
	}
	r := &run{
		cfg:    cfg,
		in:     in,
		tr:     newTracer(cfg.trace),
		values: make(map[string]float64),
		unmeasured: map[string]string{
			"enumbase.query_ms": "EnumBase exceeds 20 s per query at this scale; not run",
		},
		env: map[string]any{
			"workload":   cfg.workload,
			"seed":       cfg.seed,
			"seconds":    cfg.seconds,
			"trace":      cfg.trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
			"dataset": map[string]any{
				"code": "CM", "edges": in.d.G.NumEdges(), "tmax": in.d.G.TMax(),
				"kmax": in.d.KMax, "k": in.k,
			},
			"note": "BENCH_PR*.json numbers were taken on a 1-CPU container and are not comparable with these",
		},
	}
	if err := drive(r); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := r.appendProbe(); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		r.finishLayers()
	}
	r.note("host_speed", map[string]any{"before": hostBefore, "after": hostSpeed()})

	if n := r.attempted.Load(); n > 0 {
		r.set("success_ratio", float64(n-r.failed.Load())/float64(n))
	}
	defs := endToEnd
	if cfg.trace {
		r.set("trace.spans", float64(r.tr.count()))
		defs = perLayer
	}
	res := result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if _, noted := r.unmeasured[d.name]; !noted {
				r.unmeasured[d.name] = "no samples in this run"
			}
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted == 0 {
		res.Attempted = 1 // nothing ran: report one failed attempt
		res.Failed = 1
	}
	r.env["unmeasured"] = r.unmeasured
	if cfg.trace {
		name := fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)
		path, err := r.tr.write(filepath.Join(cfg.root, "traces"), name, r.env)
		if err != nil {
			return result{}, nil, err
		}
		r.env["trace_file"] = path
	}
	return res, r.env, nil
}
