package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Sharded durability rides on the same data directory: the spine graph
// recovers through the usual snapshot + WAL chain (the only path proven
// byte-identical), and every shard's edges recover with it. The shard
// partition persists only as
//
//	shards.json  the manifest of sealed cuts, rewritten per seal
//
// which snapshot compaction leaves alone (compact only touches
// snapshot-/wal-/warm- files). Per-shard segment images
// (shard-<id>-<seq>.tkcs) found in a directory are neither read nor
// removed.

// ShardCut is the durable record of one sealed shard boundary, mirroring
// the in-memory directory cut.
type ShardCut struct {
	ID     int   `json:"id"`      // 0-based shard id
	RawEnd int64 `json:"raw_end"` // inclusive raw-time upper bound
	End    int64 `json:"end"`     // compressed rank of RawEnd at seal time
	Seq    int64 `json:"seq"`     // spine mutation sequence at seal time
}

func (s *Store) manifestPath() string {
	return filepath.Join(s.dir, "shards.json")
}

// SyncShards makes the sealed-shard tier durable for the given cut list
// (ascending, cuts[i].ID == i) by rewriting the manifest atomically.
// Writer-side, like Append.
func (s *Store) SyncShards(cuts []ShardCut) error {
	if s.g == nil {
		return fmt.Errorf("store: empty store: nothing to shard")
	}
	data, err := json.MarshalIndent(cuts, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding shard manifest: %w", err)
	}
	if err := writeFileAtomic(s.manifestPath(), func(f *os.File) error {
		_, werr := f.Write(append(data, '\n'))
		return werr
	}); err != nil {
		return fmt.Errorf("store: writing shard manifest: %w", err)
	}
	return nil
}

// ShardManifest loads the sealed-cut manifest, nil (no error) when the
// directory has no shard tier.
func (s *Store) ShardManifest() ([]ShardCut, error) {
	data, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var cuts []ShardCut
	if err := json.Unmarshal(data, &cuts); err != nil {
		return nil, fmt.Errorf("store: shard manifest: %w", err)
	}
	for i, c := range cuts {
		if c.ID != i {
			return nil, fmt.Errorf("store: shard manifest: cut %d has id %d", i, c.ID)
		}
		if i > 0 && (c.RawEnd <= cuts[i-1].RawEnd || c.End <= cuts[i-1].End) {
			return nil, fmt.Errorf("store: shard manifest: cuts not ascending at %d", i)
		}
	}
	return cuts, nil
}
