package store

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"temporalkcore/internal/tgraph"
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
// ShardManifest reads back unchanged, and that each shard file opens with
// ReadShard as exactly the spine's slice of that shard's range.
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
	start := tgraph.TS(1)
	for _, c := range cuts {
		w := tgraph.Window{Start: start, End: tgraph.TS(c.End)}
		want, err := st.Graph().SliceWindow(w)
		if err != nil {
			t.Fatalf("SliceWindow %v: %v", w, err)
		}
		sh, err := st.ReadShard(c.ID, c.Seq)
		if err != nil {
			t.Fatalf("ReadShard %d: %v", c.ID, err)
		}
		if !bytes.Equal(segBytes(t, sh), segBytes(t, want)) {
			t.Fatalf("shard %d differs from the spine's slice of %v", c.ID, w)
		}
		start = w.End + 1
	}
	if _, err := st.ReadShard(len(cuts), st.Seq()); err == nil {
		t.Fatal("ReadShard of an unsealed shard succeeded")
	}
}

// TestSyncShardsKeepsSealedFiles checks that a re-sync writes only the
// shards that are new: an existing shard file is never rewritten, even
// when its content no longer matches the spine.
func TestSyncShardsKeepsSealedFiles(t *testing.T) {
	st := fillStore(t, t.TempDir(), 6)
	defer st.Close()
	cuts := shardCuts(st.Seq())
	if err := st.SyncShards(cuts[:1]); err != nil {
		t.Fatalf("SyncShards: %v", err)
	}
	path := st.shardPath(0, cuts[0].Seq)
	sentinel := []byte("sealed once")
	if err := os.WriteFile(path, sentinel, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.SyncShards(cuts); err != nil {
		t.Fatalf("re-sync: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, sentinel) {
		t.Fatalf("sealed shard file rewritten: %q, %v", data, err)
	}
	if _, err := st.ReadShard(1, cuts[1].Seq); err != nil {
		t.Fatalf("new shard not written: %v", err)
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
