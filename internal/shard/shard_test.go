package shard_test

import (
	"testing"

	"temporalkcore/internal/shard"
	"temporalkcore/internal/tgraph"
)

// TestDirectorySpans tables how many shards a window spans: a sealed
// shard counts when its [start, cut] range meets the window, the frontier
// when the window reaches above the last cut.
func TestDirectorySpans(t *testing.T) {
	d, err := shard.NewDirectory([]shard.Cut{
		{RawEnd: 100, End: 10, Seq: 1},
		{RawEnd: 200, End: 20, Seq: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumShards() != 3 || d.NumSealed() != 2 {
		t.Fatalf("NumShards=%d NumSealed=%d", d.NumShards(), d.NumSealed())
	}

	cases := []struct {
		name string
		w    tgraph.Window
		want int
	}{
		{"spanning everything", tgraph.Window{Start: 1, End: 30}, 3},
		{"interior of one sealed shard", tgraph.Window{Start: 12, End: 18}, 1},
		{"frontier only", tgraph.Window{Start: 25, End: 30}, 1},
		{"crossing the first cut only", tgraph.Window{Start: 5, End: 15}, 2},
		{"ending on a cut", tgraph.Window{Start: 1, End: 10}, 1},
		{"starting just above a cut", tgraph.Window{Start: 21, End: 21}, 1},
		{"starting on the last cut", tgraph.Window{Start: 20, End: 21}, 2},
	}
	for _, tc := range cases {
		if got := d.Overlaps(tc.w); got != tc.want {
			t.Errorf("%s: Overlaps(%v) = %d, want %d", tc.name, tc.w, got, tc.want)
		}
	}

	frontier, err := shard.NewDirectory(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := frontier.Overlaps(tgraph.Window{Start: 1, End: 30}); got != 1 {
		t.Errorf("frontier-only directory: Overlaps = %d, want 1", got)
	}
}

func TestDirectorySealValidation(t *testing.T) {
	d, err := shard.NewDirectory([]shard.Cut{{RawEnd: 100, End: 10, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(shard.Cut{RawEnd: 50, End: 5, Seq: 2}); err == nil {
		t.Fatal("descending seal accepted")
	}
	d2, err := d.Seal(shard.Cut{RawEnd: 200, End: 20, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSealed() != 1 || d2.NumSealed() != 2 {
		t.Fatal("Seal mutated the receiver or failed to extend")
	}
}
