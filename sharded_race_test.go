package temporalkcore_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	tkc "temporalkcore"
)

// TestShardedRacingDifferential is the racing differential suite of the
// shard layer, in the mould of TestConcurrentAppendVsQueryDifferential:
// reader goroutines continuously pin the latest published ShardedView and
// run sharded queries while the writer appends the edge-stream tail
// and the frontier auto-seals — the directory grows mid-test, so readers
// hold views of different shard counts concurrently. Every sharded result
// must (a) byte-match the unsharded enumeration of the same pinned epoch,
// inline, and (b) fingerprint-match a quiesced from-scratch rebuild of the
// same edge prefix, verified after the churn. Run under -race this also
// proves the shard runtime's memory-model claims.
func TestShardedRacingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const k = 6
	all := cmEdges(t, 1100)
	cut := len(all) * 94 / 100
	sg, err := tkc.ShardGraph(mustGraph(t, all[:cut]), tkc.ShardOptions{
		Shards:        3,
		MaxShardEdges: 20, // churn: nearly every writer batch seals a shard
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sg.Close()
	startShards := sg.NumShards()

	type obs struct {
		seq    int64
		edges  int
		shards int
		fp     string
	}
	var mu sync.Mutex
	seen := map[int64]obs{}
	spanning := false // some query's window overlapped a cut mid-churn
	observed := func(seq int64) bool {
		mu.Lock()
		defer mu.Unlock()
		_, ok := seen[seq]
		return ok
	}
	record := func(o obs, overlaps int) error {
		mu.Lock()
		defer mu.Unlock()
		if overlaps >= 2 {
			spanning = true
		}
		if prev, ok := seen[o.seq]; ok {
			if prev.fp != o.fp || prev.edges != o.edges {
				return fmt.Errorf("epoch %d served two different sharded results (%d vs %d shards):\n%q\n%q",
					o.seq, prev.shards, o.shards, prev.fp, o.fp)
			}
			return nil
		}
		seen[o.seq] = o
		return nil
	}

	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v := sg.Latest()
				snap := v.Snapshot()
				lo, hi := snap.TimeSpan()
				ws := hi - (hi-lo)/10

				// Inline byte-match: the sharded stream against the
				// unsharded enumeration of the exact same pinned epoch.
				want, err := snap.Query(k).Window(ws, hi).Collect(ctx)
				if err != nil {
					t.Errorf("oracle on epoch %d: %v", v.Seq(), err)
					return
				}
				var st tkc.QueryStats
				got, err := v.Query(k).Window(ws, hi).Stats(&st).Collect(ctx)
				if err != nil {
					t.Errorf("sharded query on epoch %d: %v", v.Seq(), err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("epoch %d (%d shards): sharded stream diverged from the unsharded oracle (%d vs %d cores)",
						v.Seq(), v.NumShards(), len(got), len(want))
					return
				}

				fp, err := fingerprintFrom(snap.Graph, v, k)
				if err != nil {
					t.Errorf("fingerprint on epoch %d: %v", v.Seq(), err)
					return
				}
				if err := record(obs{seq: v.Seq(), edges: snap.NumEdges(), shards: v.NumShards(), fp: fp}, st.Shards); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Writer: append the tail in small batches; MaxShardEdges keeps the
	// frontier sealing underneath the readers. Bounded waits make readers
	// provably observe many distinct epochs rather than racing to the end.
	const batch = 8
	for i := cut; i < len(all); i += batch {
		j := min(i+batch, len(all))
		if _, err := sg.Append(all[i:j]...); err != nil {
			t.Fatal(err)
		}
		seq := sg.Latest().Seq()
		for wait := 0; wait < 20000 && !observed(seq) && !t.Failed(); wait++ {
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(seen) < 2 {
		t.Fatalf("readers observed only %d distinct epochs; the race window never opened", len(seen))
	}
	if sg.NumShards() <= startShards {
		t.Fatalf("frontier never sealed mid-test (%d shards throughout)", startShards)
	}
	if !spanning {
		t.Fatal("no query window overlapped two shards; the cut-crossing case went unexercised")
	}

	// Quiesced verification: rebuild every observed epoch's edge prefix
	// from scratch and demand fingerprint-identical results.
	for seq, o := range seen {
		rebuilt := mustGraph(t, all[:o.edges])
		want, err := coreFingerprint(rebuilt, k)
		if err != nil {
			t.Fatal(err)
		}
		if o.fp != want {
			t.Errorf("epoch %d (%d edges, %d shards): sharded result differs from the quiesced rebuild:\n got %q\nwant %q",
				seq, o.edges, o.shards, o.fp, want)
		}
	}
}

func mustGraph(t testing.TB, edges []tkc.Edge) *tkc.Graph {
	t.Helper()
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
