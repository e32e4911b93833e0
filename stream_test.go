package temporalkcore_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	tkc "temporalkcore"
)

func TestWriteReadCoresRoundTrip(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	qs, err := g.Query(2).Window(1, 7).WriteTo(ctx, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Cores == 0 {
		t.Fatal("no cores written")
	}

	var got []tkc.Core
	if err := tkc.ReadCores(&buf, func(c tkc.Core) bool {
		got = append(got, c)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != qs.Cores {
		t.Fatalf("read %d cores, wrote %d", len(got), qs.Cores)
	}
	var edges int64
	for _, c := range got {
		if c.Start < 1 || c.End > 7 || c.Start > c.End {
			t.Errorf("bad TTI %d..%d", c.Start, c.End)
		}
		edges += int64(len(c.Edges))
	}
	if edges != qs.Edges {
		t.Errorf("read %d edges, wrote %d", edges, qs.Edges)
	}
}

func TestReadCoresEarlyStop(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.Query(2).Window(1, 7).WriteTo(ctx, &buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := tkc.ReadCores(&buf, func(tkc.Core) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}

func TestReadCoresRejectsGarbage(t *testing.T) {
	err := tkc.ReadCores(strings.NewReader("{\"start\": 1,\n---garbage---\n"), func(tkc.Core) bool { return true })
	if err == nil {
		t.Error("garbage stream accepted")
	}
	// Empty stream is fine.
	if err := tkc.ReadCores(strings.NewReader(""), func(tkc.Core) bool { return true }); err != nil {
		t.Errorf("empty stream: %v", err)
	}
}

func TestWriteCoresPropagatesQueryErrors(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.Query(0).Window(1, 7).WriteTo(ctx, &buf); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := g.Query(2).Window(90, 99).WriteTo(ctx, &buf); err != tkc.ErrNoTimestamps {
		t.Errorf("empty range: %v", err)
	}
}

// failWriter fails every Write after the first n bytes were accepted.
type failWriter struct {
	n      int
	wrote  int
	failed bool
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.wrote+len(p) > f.n {
		f.failed = true
		return 0, errWriterBroken
	}
	f.wrote += len(p)
	return len(p), nil
}

var errWriterBroken = errors.New("writer broken")

// TestWriteToEncodeError: a writer failing mid-stream (the NDJSON output
// exceeds the buffer, so Encode hits the error before the final flush)
// surfaces as a wrapped encoding error and stops the engine early.
func TestWriteToEncodeError(t *testing.T) {
	g := reqGraph(t, 11, 60, 2000)
	lo, hi := g.TimeSpan()
	fw := &failWriter{n: 1 << 16} // accept one buffer, then fail
	_, err := g.Query(2).Window(lo, hi).WriteTo(context.Background(), fw)
	if err == nil {
		t.Fatal("WriteTo on a failing writer succeeded")
	}
	if !errors.Is(err, errWriterBroken) {
		t.Fatalf("WriteTo error %v does not wrap the writer error", err)
	}
	if !strings.Contains(err.Error(), "encoding cores") {
		t.Fatalf("WriteTo error %q is not the encoding-path error", err)
	}
	if !fw.failed {
		t.Fatal("writer never saw the failure")
	}
}

// TestWriteToFlushError: when the whole result fits the buffer, the
// writer's failure only surfaces at the final flush — that error must not
// be swallowed.
func TestWriteToFlushError(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	fw := &failWriter{n: 0} // fail on the very first byte, i.e. at flush
	_, err = g.Query(2).Window(1, 7).WriteTo(context.Background(), fw)
	if !errors.Is(err, errWriterBroken) {
		t.Fatalf("WriteTo = %v, want the flush error", err)
	}
}

// TestWriteToCancelPartialDelivery: cancelling mid-stream flushes the
// complete lines written so far (partial delivery) and reports ctx.Err().
func TestWriteToCancelPartialDelivery(t *testing.T) {
	g := reqGraph(t, 11, 40, 600)
	lo, hi := g.TimeSpan()
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	lines := 0
	// Cancel from inside the stream via a limited reader trick: run Seq
	// alongside is complex, so instead cancel after a time slice.
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := g.Query(2).Window(lo, hi).WriteTo(ctx, &buf)
	if err == nil {
		// The query may legitimately finish before the cancel lands; only
		// assert the error when it was cancelled.
		t.Skip("query finished before cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteTo = %v, want context.Canceled", err)
	}
	if err := tkc.ReadCores(bytes.NewReader(buf.Bytes()), func(tkc.Core) bool { lines++; return true }); err != nil {
		t.Fatalf("partial output is not valid NDJSON: %v", err)
	}
}
