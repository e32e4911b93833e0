package core_test

import (
	"context"
	"errors"
	"testing"

	"temporalkcore/internal/core"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/paperex"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// TestQueryBatchMatchesQuery pins the batch worker pool: every item answers
// exactly as a direct Query of the same (k, window, algorithm), and a
// cancelled batch reports every item it never ran as Cancelled.
func TestQueryBatchMatchesQuery(t *testing.T) {
	g := paperex.Graph()
	w := g.FullWindow()
	queries := []core.BatchQuery{
		{K: 2, W: w},
		{K: 2, W: tgraph.Window{Start: 2, End: w.End}},
		{K: 3, W: w},
		{K: 2, W: w, Opts: core.Options{Algorithm: core.AlgoEnumBase}},
		{K: 2, W: w, Opts: core.Options{Algorithm: core.AlgoOTCD}},
	}
	sinks := make([]enum.CollectSink, len(queries))
	res := core.QueryBatch(context.Background(), g, queries, 2, func(i int) enum.Sink { return &sinks[i] })
	for i, q := range queries {
		if res[i].Err != nil || res[i].Cancelled {
			t.Fatalf("item %d: err %v, cancelled %v", i, res[i].Err, res[i].Cancelled)
		}
		var want enum.CollectSink
		if _, err := core.Query(g, q.K, q.W, &want, q.Opts); err != nil {
			t.Fatal(err)
		}
		enum.SortCores(want.Cores)
		enum.SortCores(sinks[i].Cores)
		if !enum.EqualCoreSets(want.Cores, sinks[i].Cores) {
			t.Errorf("item %d: %d cores, Query found %d", i, len(sinks[i].Cores), len(want.Cores))
		}
	}
	if got := core.QueryBatch(nil, g, nil, 0, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range core.QueryBatch(ctx, g, queries, 0, func(int) enum.Sink { return new(enum.CountSink) }) {
		if !r.Cancelled || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d of a cancelled batch: err %v, cancelled %v", i, r.Err, r.Cancelled)
		}
	}
}

// TestStopErr: a stopped build reports the context's error once the
// context is done, and any other error passes through.
func TestStopErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := core.StopErr(ctx, vct.ErrStopped); err != vct.ErrStopped {
		t.Errorf("live ctx: %v, want vct.ErrStopped", err)
	}
	cancel()
	if err := core.StopErr(ctx, vct.ErrStopped); err != context.Canceled {
		t.Errorf("cancelled ctx: %v, want context.Canceled", err)
	}
	other := errors.New("other")
	if err := core.StopErr(ctx, other); err != other {
		t.Errorf("other error: %v", err)
	}
	if err := core.StopErr(nil, vct.ErrStopped); err != vct.ErrStopped {
		t.Errorf("nil ctx: %v, want vct.ErrStopped", err)
	}
}
