package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// shardCuts seals two shards, [1,3] and [4,5], of a store filled by
// fillStore (bootstrap at rank 1, batch i at rank i+2).
func shardCuts(seq int64) []ShardCut {
	return []ShardCut{
		{ID: 0, RawEnd: 3, End: 3, Seq: seq},
		{ID: 1, RawEnd: 5, End: 5, Seq: seq},
	}
}

// TestSyncShardsRoundTrip checks that SyncShards persists a manifest that
// ShardManifest reads back unchanged, and writes no per-shard image.
func TestSyncShardsRoundTrip(t *testing.T) {
	st := fillStore(t, t.TempDir(), 6)
	defer st.Close()
	if cuts, err := st.ShardManifest(); err != nil || cuts != nil {
		t.Fatalf("manifest before any seal: %v, %v; want nil, nil", cuts, err)
	}
	cuts := shardCuts(st.Seq())
	if err := st.SyncShards(cuts); err != nil {
		t.Fatalf("SyncShards: %v", err)
	}
	got, err := st.ShardManifest()
	if err != nil {
		t.Fatalf("ShardManifest: %v", err)
	}
	if !reflect.DeepEqual(got, cuts) {
		t.Fatalf("manifest %+v, want %+v", got, cuts)
	}
	if images, _ := filepath.Glob(filepath.Join(st.dir, "shard-*.tkcs")); len(images) != 0 {
		t.Fatalf("SyncShards wrote shard images %v", images)
	}
}

// TestSyncShardsKeepsSealedFiles checks that a re-sync after a further
// seal rewrites the manifest with every sealed cut.
func TestSyncShardsKeepsSealedFiles(t *testing.T) {
	st := fillStore(t, t.TempDir(), 6)
	defer st.Close()
	cuts := shardCuts(st.Seq())
	if err := st.SyncShards(cuts[:1]); err != nil {
		t.Fatalf("SyncShards: %v", err)
	}
	if err := st.SyncShards(cuts); err != nil {
		t.Fatalf("re-sync: %v", err)
	}
	got, err := st.ShardManifest()
	if err != nil || len(got) != len(cuts) {
		t.Fatalf("manifest after re-sync: %+v, %v", got, err)
	}
}

// TestShardManifestRejectsBadCuts checks that a manifest whose ids do not
// count up from 0, or whose cuts do not strictly ascend in raw or
// compressed time, fails to load instead of yielding a wrong partition.
func TestShardManifestRejectsBadCuts(t *testing.T) {
	st := fillStore(t, t.TempDir(), 6)
	defer st.Close()
	for name, body := range map[string]string{
		"bad id":             `[{"id":1,"raw_end":3,"end":3,"seq":6}]`,
		"raw end descending": `[{"id":0,"raw_end":5,"end":3,"seq":6},{"id":1,"raw_end":4,"end":5,"seq":6}]`,
		"end not ascending":  `[{"id":0,"raw_end":3,"end":3,"seq":6},{"id":1,"raw_end":5,"end":3,"seq":6}]`,
		"not json":           `[{"id":0,`,
	} {
		if err := os.WriteFile(st.manifestPath(), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if cuts, err := st.ShardManifest(); err == nil {
			t.Errorf("%s: manifest accepted as %+v", name, cuts)
		}
	}
}

// TestSyncShardsEmptyStore checks that sealing before bootstrap is an
// error, not an empty shard tier.
func TestSyncShardsEmptyStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if err := st.SyncShards(shardCuts(0)); err == nil {
		t.Fatal("SyncShards on an empty store succeeded")
	}
}
