package temporalkcore_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	tkc "temporalkcore"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden NDJSON files")

// goldenCases are deterministic graphs and queries whose WriteTo output
// is locked byte for byte: the NDJSON schema ({"start","end","edges":[[u,v,t],...]},
// one object per line, emission order) is a wire format downstream
// consumers parse, so accidental changes must fail loudly.
var goldenCases = []struct {
	name  string
	edges []tkc.Edge
	k     int
	start int64
	end   int64
}{
	{
		name: "triangle_growing",
		edges: []tkc.Edge{
			{U: 1, V: 2, Time: 10}, {U: 2, V: 3, Time: 11}, {U: 1, V: 3, Time: 12},
			{U: 3, V: 4, Time: 13}, {U: 1, V: 4, Time: 13}, {U: 2, V: 4, Time: 14},
		},
		k: 2, start: 10, end: 14,
	},
	{
		name: "two_bursts",
		edges: []tkc.Edge{
			{U: 10, V: 20, Time: 1}, {U: 20, V: 30, Time: 1}, {U: 10, V: 30, Time: 2},
			{U: 40, V: 50, Time: 5}, {U: 50, V: 60, Time: 5}, {U: 40, V: 60, Time: 5},
			{U: 10, V: 40, Time: 6}, {U: 20, V: 50, Time: 6}, {U: 10, V: 20, Time: 7},
			{U: 10, V: 30, Time: 7}, {U: 20, V: 30, Time: 7},
		},
		k: 2, start: 1, end: 7,
	},
	{
		name: "no_cores",
		edges: []tkc.Edge{
			{U: 1, V: 2, Time: 1}, {U: 3, V: 4, Time: 2}, {U: 5, V: 6, Time: 3},
		},
		k: 2, start: 1, end: 3,
	},
}

func TestWriteCoresGolden(t *testing.T) {
	ctx := context.Background()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tkc.NewGraph(tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := g.Query(tc.k).Window(tc.start, tc.end).WriteTo(ctx, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".ndjson")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("WriteTo NDJSON output changed for %s.\nThis is a locked wire format; if the change is intentional, regenerate with `go test -run TestWriteCoresGolden -update`.\n--- got ---\n%s--- want ---\n%s",
					tc.name, buf.Bytes(), want)
			}

			// The format must round-trip through ReadCores.
			var back []tkc.Core
			if err := tkc.ReadCores(bytes.NewReader(buf.Bytes()), func(c tkc.Core) bool {
				back = append(back, c)
				return true
			}); err != nil {
				t.Fatalf("ReadCores on golden output: %v", err)
			}
			cores, err := g.Query(tc.k).Window(tc.start, tc.end).Collect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if coreSetString(back) != coreSetString(cores) {
				t.Error("ReadCores round-trip lost information")
			}
		})
	}
}
