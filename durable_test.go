package temporalkcore_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	tkc "temporalkcore"
)

// TestDurableLifecycle drives the public durability tier end to end:
// bootstrap + appends into a data directory, query equivalence against an
// in-memory build of the same stream, snapshot, close, recover, and keep
// appending — across two process generations of the same directory.
func TestDurableLifecycle(t *testing.T) {
	ref, edges := diffGraph(t, 71)
	dir := t.TempDir()

	d, err := tkc.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if d.Graph() != nil || d.Seq() != -1 {
		t.Fatalf("fresh dir: Graph=%v Seq=%d", d.Graph(), d.Seq())
	}
	if _, err := d.Append(edges[0]); err == nil {
		t.Fatal("Append before Bootstrap succeeded")
	}
	if _, err := d.Bootstrap(edges[:100]); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if _, err := d.Bootstrap(edges[:100]); err == nil {
		t.Fatal("second Bootstrap succeeded")
	}
	for i := 100; i < len(edges); i += 64 {
		j := min(i+64, len(edges))
		if _, err := d.Append(edges[i:j]...); err != nil {
			t.Fatalf("Append [%d:%d): %v", i, j, err)
		}
	}

	ctx := context.Background()
	want, err := ref.Query(2).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Graph().Query(2).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores != want.Cores || got.Edges != want.Edges {
		t.Fatalf("durable build answers %+v, in-memory build %+v", got, want)
	}

	seq, err := d.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if seq != d.Seq() {
		t.Fatalf("snapshot seq %d, live seq %d", seq, d.Seq())
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := d.Append(edges[0]); err == nil {
		t.Fatal("Append after Close succeeded")
	}

	d2, err := tkc.OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Seq() != seq || d2.Graph().NumEdges() != ref.NumEdges() {
		t.Fatalf("recovered seq %d edges %d, want %d/%d", d2.Seq(), d2.Graph().NumEdges(), seq, ref.NumEdges())
	}
	got, err = d2.Graph().Query(2).Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cores != want.Cores || got.Edges != want.Edges {
		t.Fatalf("recovered graph answers %+v, want %+v", got, want)
	}
	_, hi := d2.Graph().TimeSpan()
	if _, err := d2.Append(tkc.Edge{U: 1, V: 2, Time: hi + 10}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestDurableWarmHistoricalOracle: a PHC index built before the snapshot is
// spilled with it, and after a restart the same historical query is a cache
// hit — with the recovered index also seeding the patch oracle for moved
// windows.
func TestDurableWarmHistoricalOracle(t *testing.T) {
	_, edges := diffGraph(t, 72)
	dir := t.TempDir()
	d, err := tkc.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if _, err := d.Bootstrap(edges); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	ctx := context.Background()
	lo, hi := d.Graph().TimeSpan()
	hx, err := d.Graph().HistoricalIndex(ctx, lo, hi)
	if err != nil {
		t.Fatalf("HistoricalIndex: %v", err)
	}
	coldCT, err := histVertices(hx, 3, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if cs := d.Graph().CacheStats(); cs.Misses < 1 {
		t.Fatalf("cold historical build recorded no cache miss: %+v", cs)
	}

	if _, err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, err := tkc.OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.WarmEntries() < 1 {
		t.Fatalf("warm spill re-admitted %d entries, want >= 1", d2.WarmEntries())
	}
	hx2, err := d2.Graph().HistoricalIndex(ctx, lo, hi)
	if err != nil {
		t.Fatalf("post-restart HistoricalIndex: %v", err)
	}
	cs := d2.Graph().CacheStats()
	if cs.Hits < 1 || cs.Misses != 0 {
		t.Fatalf("post-restart historical query was not a warm hit: %+v", cs)
	}
	warmCT, err := histVertices(hx2, 3, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(coldCT) != len(warmCT) {
		t.Fatalf("core members %d vs %d", len(warmCT), len(coldCT))
	}
	for i := range coldCT {
		if coldCT[i] != warmCT[i] {
			t.Fatalf("member %d: recovered %d, want %d", i, warmCT[i], coldCT[i])
		}
	}
}

// TestAppendReaderSink: an AppendReader with Sink set routes every batch
// through the durable tier, so a stream ingested this way survives a
// reopen.
func TestAppendReaderSink(t *testing.T) {
	_, edges := diffGraph(t, 73)
	dir := t.TempDir()
	d, err := tkc.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if _, err := d.Bootstrap(edges[:50]); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	var sb strings.Builder
	for _, e := range edges[50:] {
		fmt.Fprintf(&sb, "%d %d %d\n", e.U, e.V, e.Time)
	}
	ar := tkc.NewAppendReader(d.Graph(), strings.NewReader(sb.String()))
	ar.BatchSize = 32
	ar.Sink = d
	for {
		_, err := ar.ReadBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
	}
	wantEdges := d.Graph().NumEdges()
	wantSeq := d.Seq()
	if wantSeq < 1 {
		t.Fatalf("sink routed no batches (seq %d)", wantSeq)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, err := tkc.OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.Seq() != wantSeq || d2.Graph().NumEdges() != wantEdges {
		t.Fatalf("recovered seq %d edges %d, want %d/%d", d2.Seq(), d2.Graph().NumEdges(), wantSeq, wantEdges)
	}
}
