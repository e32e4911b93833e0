package temporalkcore_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	tkc "temporalkcore"
)

func TestGraphAppend(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 10}, {U: 2, V: 3, Time: 11}, {U: 1, V: 3, Time: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Append(tkc.Edge{U: 2, V: 3, Time: 12}, tkc.Edge{U: 1, V: 2, Time: 13})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Append added %d, want 2", n)
	}
	if g.NumEdges() != 5 || g.TimestampCount() != 4 {
		t.Fatalf("after append: %d edges, %d timestamps", g.NumEdges(), g.TimestampCount())
	}
	// Appended edges take part in queries like built ones.
	want, err := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 10}, {U: 2, V: 3, Time: 11}, {U: 1, V: 3, Time: 12},
		{U: 2, V: 3, Time: 12}, {U: 1, V: 2, Time: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Query(2).Window(10, 13).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := want.Query(2).Window(10, 13).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if coreSetString(got) != coreSetString(exp) {
		t.Fatalf("append-path cores differ from build-path cores:\n%s\nvs\n%s", coreSetString(got), coreSetString(exp))
	}
	// Time-order violations are rejected.
	if _, err := g.Append(tkc.Edge{U: 5, V: 6, Time: 1}); err == nil {
		t.Fatal("out-of-order append succeeded")
	}
}

// coreSetString renders cores order-independently: each edge's undirected
// orientation is canonicalised (the dense-id mapping behind Label order
// depends on build order), each core's edges are sorted, then the cores
// themselves.
func coreSetString(cores []tkc.Core) string {
	lines := make([]string, len(cores))
	for i, c := range cores {
		es := append([]tkc.Edge(nil), c.Edges...)
		for j, e := range es {
			if e.U > e.V {
				es[j].U, es[j].V = e.V, e.U
			}
		}
		sort.Slice(es, func(a, b int) bool {
			x, y := es[a], es[b]
			if x.Time != y.Time {
				return x.Time < y.Time
			}
			if x.U != y.U {
				return x.U < y.U
			}
			return x.V < y.V
		})
		lines[i] = fmt.Sprintf("[%d,%d] %v", c.Start, c.End, es)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestAppendReaderFormats(t *testing.T) {
	g, err := tkc.NewGraph([]tkc.Edge{{U: 1, V: 2, Time: 1}})
	if err != nil {
		t.Fatal(err)
	}
	stream := strings.Join([]string{
		"# comment",
		`{"u": 2, "v": 3, "t": 2}`,
		"",
		"3 4 2",
		"% another comment",
		"1 4 9 3", // KONECT style, weight ignored
		`{"u": 4, "v": 2, "t": 4}`,
	}, "\n")
	ar := tkc.NewAppendReader(g, strings.NewReader(stream))
	ar.BatchSize = 2
	total, batches := 0, 0
	for {
		n, err := ar.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += n
		batches++
	}
	if total != 4 || ar.Total() != 4 {
		t.Fatalf("appended %d (reader says %d), want 4", total, ar.Total())
	}
	if batches != 2 {
		t.Fatalf("batches = %d, want 2", batches)
	}
	if g.NumEdges() != 5 || g.NumVertices() != 4 {
		t.Fatalf("graph has %d edges, %d vertices", g.NumEdges(), g.NumVertices())
	}

	// Malformed lines surface with their line number.
	bad := tkc.NewAppendReader(g, strings.NewReader("5 6\n"))
	if _, err := bad.ReadBatch(); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("bad line error = %v", err)
	}
	badJSON := tkc.NewAppendReader(g, strings.NewReader(`{"u": 5, "t": 9}`))
	if _, err := badJSON.ReadBatch(); err == nil {
		t.Fatal("NDJSON edge without v accepted")
	}
}

// TestWatcherFollowsStream drives a watcher through random append batches
// and checks every answer against a one-shot query on an equivalent
// freshly built graph.
func TestWatcherFollowsStream(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(14)
		var all []tkc.Edge
		time := int64(1)
		for len(all) < 150 {
			if r.Intn(3) == 0 {
				time++
			}
			all = append(all, tkc.Edge{U: int64(r.Intn(n)), V: int64(r.Intn(n)), Time: time})
		}
		cut := 40
		g, err := tkc.NewGraph(all[:cut])
		if err != nil {
			t.Fatal(err)
		}
		span := time / 2
		w, err := g.Watch(2, span)
		if err != nil {
			t.Fatal(err)
		}
		for i := cut; i < len(all); i += 25 {
			j := i + 25
			if j > len(all) {
				j = len(all)
			}
			if _, err := w.Append(all[i:j]...); err != nil {
				t.Fatalf("seed %d: watcher append: %v", seed, err)
			}
			ws, we, err := w.Window()
			if err != nil {
				t.Fatal(err)
			}
			got, err := w.Query().Collect(ctx)
			if err != nil {
				t.Fatalf("seed %d: watcher cores: %v", seed, err)
			}
			fresh, err := tkc.NewGraph(all[:j])
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(2).Window(ws, we).Collect(ctx)
			if err != nil && err != tkc.ErrNoTimestamps {
				t.Fatal(err)
			}
			if coreSetString(got) != coreSetString(want) {
				t.Fatalf("seed %d after batch ending %d: watcher window [%d,%d] cores diverge from fresh build",
					seed, j, ws, we)
			}
			// Count-only agrees with materialisation.
			qs, err := w.Query().Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if int(qs.Cores) != len(got) {
				t.Fatalf("seed %d: Count=%d, len(Collect)=%d", seed, qs.Cores, len(got))
			}
		}
		st := w.Stats()
		if st.Patches == 0 {
			t.Fatalf("seed %d: watcher never patched (stats %+v)", seed, st)
		}
	}
}

// TestWatcherRepairsDirectAppend checks that appends bypassing the watcher
// are observed on the next query.
func TestWatcherRepairsDirectAppend(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 1}, {U: 2, V: 3, Time: 1}, {U: 1, V: 3, Time: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := g.Watch(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := w.Query().Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Append(tkc.Edge{U: 3, V: 4, Time: 2}, tkc.Edge{U: 2, V: 4, Time: 2}, tkc.Edge{U: 2, V: 3, Time: 2}); err != nil {
		t.Fatal(err)
	}
	after, err := w.Query().Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cores <= before.Cores {
		t.Fatalf("watcher missed direct append: %d -> %d cores", before.Cores, after.Cores)
	}
}
