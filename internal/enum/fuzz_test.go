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
// oracle on that window. It also pins the order contract early stopping
// relies on: a LimitSink stopped after n cores, and EnumerateRangeStop
// bounded at a lastStart drawn from the input, each emit exactly a prefix
// of the unbounded raw stream, cores and edge order alike. Run the seeds
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
		var raw rawSink
		enum.EnumerateWith(g, ecs, &raw, s)

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

		// A bounded sweep is the raw stream's prefix of cores starting at
		// or before lastStart, from one step before the window to past it.
		tlen := int(w.End-w.Start) + 1
		last := w.Start - 1 + tgraph.TS(int(data[0])%(tlen+2))
		var pre rawSink
		if done, _ := enum.EnumerateRangeStop(g, ecs, &pre, s, last, nil); !done {
			t.Fatal("range enumeration stopped early")
		}
		np := 0
		for np < len(raw.cores) && raw.cores[np].TTI.Start <= last {
			np++
		}
		if !sameStream(pre.cores, raw.cores[:np]) {
			t.Fatalf("k=%d %v lastStart=%d: emitted %+v, want prefix %+v", k, w, last, pre.cores, raw.cores[:np])
		}
	})
}

// sameStream reports whether two raw emission streams hold the same cores
// with the same edges in the same order; nil and empty are the same.
func sameStream(a, b []enum.Core) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
