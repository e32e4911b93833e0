package temporalkcore_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	tkc "temporalkcore"
)

func TestShardedDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	edges := randomEdges(77, 14, 1000, 50)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time })
	base, rest := edges[:400], edges[400:]

	sg, err := tkc.BootstrapShardedDir(dir, base, tkc.ShardOptions{Shards: 3, MaxShardEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tkc.BootstrapShardedDir(dir, base, tkc.ShardOptions{}); err == nil {
		t.Fatal("second bootstrap of the same directory accepted")
	}
	for i := 0; i < len(rest); i += 150 {
		j := i + 150
		if j > len(rest) {
			j = len(rest)
		}
		if _, err := sg.Append(rest[i:j]...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sg.Seal(); err != nil {
		t.Fatal(err)
	}
	sealedShards := sg.NumShards()
	if sealedShards < 3 {
		t.Fatalf("expected initial partition + auto-seals, got %d shards", sealedShards)
	}

	lo, hi := sg.Spine().TimeSpan()
	want, err := sg.Latest().Query(2).Window(lo, hi).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantSeq := sg.Latest().Seq()

	// A spine snapshot compacts the WAL chain but must leave the shard
	// manifest alone: the reopen below rebuilds the partition from it.
	if _, err := sg.SnapshotDurable(); err != nil {
		t.Fatal(err)
	}
	if err := sg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sg.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	// Reopen: the spine recovers byte-identically, the directory comes
	// back from the manifest, and the sharded results are unchanged.
	re, err := tkc.OpenShardedDir(dir, tkc.ShardOptions{MaxShardEdges: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != sealedShards {
		t.Fatalf("reopened with %d shards, sealed %d", re.NumShards(), sealedShards)
	}
	if re.Latest().Seq() != wantSeq {
		t.Fatalf("recovered seq %d, want %d", re.Latest().Seq(), wantSeq)
	}
	got, err := re.Latest().Query(2).Window(lo, hi).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded results changed across restart")
	}
	shardedMustMatch(t, re.Latest(), 2, lo, hi)

	// And the reopened graph keeps appending + sealing durably.
	last := edges[len(edges)-1].Time
	batch := []tkc.Edge{{U: 1, V: 2, Time: last + 1}, {U: 2, V: 3, Time: last + 2}}
	if _, err := re.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Seal(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedAppendFailedSealLeavesNoTrace removes a durable sharded
// graph's data directory, standing in for a disk that refuses the seal's
// manifest while the open WAL still accepts writes. An Append whose
// auto-seal fails must report the batch as failed and leave it unapplied,
// with the published view still equal to the spine.
func TestShardedAppendFailedSealLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	edges := randomEdges(77, 14, 700, 50)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time })
	base, rest := edges[:380], edges[380:]
	sg, err := tkc.BootstrapShardedDir(dir, base, tkc.ShardOptions{MaxShardEdges: 250})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	before := sg.Spine().NumEdges()
	added, err := sg.Append(rest...)
	if err == nil {
		t.Fatal("Append succeeded although its seal could not write the manifest")
	}
	if added != 0 {
		t.Fatalf("failed Append reported %d edges added", added)
	}
	if n := sg.Spine().NumEdges(); n != before {
		t.Fatalf("failed Append changed the spine from %d to %d edges", before, n)
	}
	if n := sg.Latest().Snapshot().NumEdges(); n != before {
		t.Fatalf("latest view holds %d edges, spine %d", n, before)
	}
}

func TestOpenShardedDirRejectsForeignManifest(t *testing.T) {
	dir := t.TempDir()
	sg, err := tkc.BootstrapShardedDir(dir, randomEdges(9, 10, 300, 20), tkc.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "shards.json")
	if err := os.WriteFile(manifest, []byte(`[{"id":0,"raw_end":999999,"end":2,"seq":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tkc.OpenShardedDir(dir, tkc.ShardOptions{}); err == nil {
		t.Fatal("manifest pointing at a different history was accepted")
	}
}

func TestOpenShardedDirEmpty(t *testing.T) {
	if _, err := tkc.OpenShardedDir(t.TempDir(), tkc.ShardOptions{}); err == nil {
		t.Fatal("empty directory accepted")
	}
}
