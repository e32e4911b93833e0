package enum_test

import (
	"reflect"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// FuzzEnumerateMatchesOracle decodes the fuzz input as a temporal edge
// list, a k and a query window, and verifies Enum against the brute-force
// oracle on that window. CountStop's cores and |R| must equal both the
// oracle's totals and the walk's CountSink, so must a count split at a
// start time the first byte picks, and a stop hook that fires at once
// must cancel it. It also pins the order contract early stopping
// relies on: a LimitSink stopped after n cores emits exactly a prefix of
// the unbounded raw stream, cores and edge order alike. The full range's
// skyline cut to the window must emit that raw stream too, and count the
// oracle's totals, in one sweep and split at the same start time. Run the seeds
// with the regular test suite or explore with
// `go test -fuzz FuzzEnumerateMatchesOracle ./internal/enum`.
//
// kb's low two bits pick k; its upper six bits trim the graph's full
// window (three bits off each end), so the zero trim of the first seeds is
// the full window.
func FuzzEnumerateMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 3, 1, 1, 3, 2}, byte(2))
	f.Add([]byte{0, 1, 1, 1, 2, 2, 2, 0, 3, 0, 1, 3}, byte(1))
	f.Add([]byte{5, 6, 9, 6, 7, 9, 5, 7, 9, 7, 8, 9}, byte(3))
	f.Add([]byte{1, 2, 1, 2, 3, 2, 1, 3, 3, 3, 4, 4, 2, 4, 5, 1, 4, 6, 3, 1, 7}, byte(1<<2|1<<5|1))
	f.Add([]byte{0, 1, 2, 1, 2, 3, 0, 2, 4, 2, 3, 5, 0, 3, 6, 1, 3, 7, 0, 1, 8}, byte(2<<2|1))
	// At the first start time three live windows end at one offset below
	// e* and one at another, so CountStop's prefix aggregate depends on
	// the order it joins tree nodes in.
	f.Add([]byte{4, 2, 6, 1, 2, 0, 2, 3, 5, 3, 4, 5, 2, 4, 5, 1, 4, 8}, byte(2<<5|7<<2|1))

	f.Fuzz(func(t *testing.T, data []byte, kb byte) {
		if len(data) < 3 || len(data) > 90 {
			return
		}
		var b tgraph.Builder
		b.KeepDuplicates = len(data)%2 == 0
		for i := 0; i+2 < len(data); i += 3 {
			u := int64(data[i] % 12)
			v := int64(data[i+1] % 12)
			ts := int64(data[i+2]%10) + 1
			if u == v {
				continue
			}
			b.Add(u, v, ts)
		}
		g, err := b.Build()
		if err != nil {
			return // all self loops: nothing to test
		}
		k := int(kb%4) + 1
		full := g.FullWindow()
		w := tgraph.Window{Start: full.Start + tgraph.TS(kb>>2&7), End: full.End - tgraph.TS(kb>>5)}
		if w.Start > w.End {
			w = full
		}
		_, ecs, err := vct.Build(g, k, w)
		if err != nil {
			t.Fatalf("vct.Build(k=%d, %v): %v", k, w, err)
		}
		s := &enum.Scratch{}
		var sink enum.CollectSink
		if !enum.EnumerateWith(g, ecs, &sink, s) {
			t.Fatal("stopped early")
		}
		enum.SortCores(sink.Cores)
		want := enum.BruteForce(g, k, w)
		if !enum.EqualCoreSets(sink.Cores, want) {
			t.Fatalf("Enum disagrees with oracle (k=%d, %v)\n got %+v\nwant %+v", k, w, sink.Cores, want)
		}
		var walk enum.CountSink
		enum.EnumerateWith(g, ecs, &walk, s)
		wantR := int64(0)
		for _, c := range want {
			wantR += int64(len(c.Edges))
		}
		cores, edges, cancelled := enum.CountStop(ecs, s, nil)
		if cancelled || cores != int64(len(want)) || edges != wantR || cores != walk.Cores || edges != walk.EdgeTotal {
			t.Fatalf("k=%d %v: CountStop = (%d cores, |R| %d, cancelled %v); oracle (%d, %d), walk (%d, %d)",
				k, w, cores, edges, cancelled, len(want), wantR, walk.Cores, walk.EdgeTotal)
		}
		if w.End > w.Start {
			mid := w.Start + 1 + tgraph.TS(data[0])%(w.End-w.Start)
			if c, e, cancelled := enum.CountSplit(ecs, s, nil, mid); cancelled || c != cores || e != edges {
				t.Fatalf("k=%d %v: count split at %d = (%d cores, |R| %d, cancelled %v), want (%d, %d)",
					k, w, mid, c, e, cancelled, cores, edges)
			}
		}
		if _, _, cancelled := enum.CountStop(ecs, s, func() bool { return true }); !cancelled {
			t.Fatalf("k=%d %v: CountStop ignored a stop hook that fires at once", k, w)
		}
		var raw rawSink
		enum.EnumerateWith(g, ecs, &raw, s)

		// The full range's skyline cut to w is w's skyline.
		if w != full {
			_, fecs, err := vct.Build(g, k, full)
			if err != nil {
				t.Fatalf("vct.Build(k=%d, %v): %v", k, full, err)
			}
			var cutRaw rawSink
			if done, _ := enum.EnumerateWindowStop(g, fecs, w, &cutRaw, s, nil); !done || !sameStream(cutRaw.cores, raw.cores) {
				t.Fatalf("k=%d %v: the cut emitted %+v (done %v), the window's build %+v", k, w, cutRaw.cores, done, raw.cores)
			}
			if s.Windows() != ecs.Size() {
				t.Fatalf("k=%d %v: the cut's walk read %d windows, the window's build holds %d", k, w, s.Windows(), ecs.Size())
			}
			if c, e, cancelled := enum.CountWindowStop(g, fecs, w, s, nil); cancelled || c != cores || e != edges || s.Windows() != ecs.Size() {
				t.Fatalf("k=%d %v: cut count = (%d cores, |R| %d, %d windows, cancelled %v), want (%d, %d, %d)",
					k, w, c, e, s.Windows(), cancelled, cores, edges, ecs.Size())
			}
			if w.End > w.Start {
				mid := w.Start + 1 + tgraph.TS(data[0])%(w.End-w.Start)
				if c, e, cancelled := enum.CountWindowSplit(g, fecs, w, s, nil, mid); cancelled || c != cores || e != edges {
					t.Fatalf("k=%d %v: cut count split at %d = (%d cores, |R| %d, cancelled %v), want (%d, %d)",
						k, w, mid, c, e, cancelled, cores, edges)
				}
			}
		}

		// Early stop after n cores is the raw stream's first n cores.
		for n := 1; n <= 3; n++ {
			var part rawSink
			lim := enum.LimitSink{Inner: &part, Max: int64(n)}
			done := enum.EnumerateWith(g, ecs, &lim, s)
			wantN := min(n, len(raw.cores))
			if done != (n > len(raw.cores)) {
				t.Fatalf("k=%d %v: LimitSink(%d) over %d cores returned done=%v", k, w, n, len(raw.cores), done)
			}
			if !sameStream(part.cores, raw.cores[:wantN]) {
				t.Fatalf("k=%d %v: LimitSink(%d) emitted %+v, want prefix %+v", k, w, n, part.cores, raw.cores[:wantN])
			}
		}
	})
}

// sameStream reports whether two raw emission streams hold the same cores
// with the same edges in the same order; nil and empty are the same.
func sameStream(a, b []enum.Core) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
