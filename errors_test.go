package temporalkcore_test

import (
	"context"
	"errors"
	"io"
	"testing"

	tkc "temporalkcore"
)

// errGraph builds a small graph whose timestamps live in [10, 14], so
// [100, 200] is a well-formed range that misses every timestamp and
// (7, 1) is inverted.
func errGraph(t *testing.T) *tkc.Graph {
	t.Helper()
	g, err := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 10}, {U: 2, V: 3, Time: 11}, {U: 1, V: 3, Time: 12},
		{U: 3, V: 4, Time: 13}, {U: 1, V: 4, Time: 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRangeErrorContract locks the uniform error contract of every public
// entry point that takes a raw (start, end) range: start > end yields
// ErrEmptyRange, a well-formed range covering no timestamp yields
// ErrNoTimestamps — never a silent empty result, never the other sentinel.
func TestRangeErrorContract(t *testing.T) {
	g := errGraph(t)
	ctx := context.Background()
	entryPoints := []struct {
		name string
		call func(start, end int64) error
	}{
		{"Collect", func(s, e int64) error { _, err := g.Query(2).Window(s, e).Collect(ctx); return err }},
		{"Seq", func(s, e int64) error {
			for _, err := range g.Query(2).Window(s, e).Seq(ctx) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"Count", func(s, e int64) error { _, err := g.Query(2).Window(s, e).Count(ctx); return err }},
		{"WriteTo", func(s, e int64) error { _, err := g.Query(2).Window(s, e).WriteTo(ctx, io.Discard); return err }},
		{"RunBatch", func(s, e int64) error {
			res := g.RunBatch(ctx, []*tkc.Request{g.Query(2).Window(s, e)})
			return res[0].Err
		}},
		{"RunBatch count-only", func(s, e int64) error {
			res := g.RunBatch(ctx, []*tkc.Request{g.Query(2).Window(s, e)}, tkc.BatchOptions{Parallelism: 1, CountOnly: true})
			return res[0].Err
		}},
		{"Prepare", func(s, e int64) error { _, err := g.Prepare(2, s, e); return err }},
		{"CoreTimes", func(s, e int64) error { _, err := g.CoreTimes(1, 2, s, e); return err }},
		{"VertexSets", func(s, e int64) error { _, err := g.VertexSets(2, s, e); return err }},
		{"Snapshot vertices", func(s, e int64) error {
			_, _, err := g.Query(2).Window(s, e).Snapshot(1).Project(tkc.ProjectVertices).First(ctx)
			return err
		}},
		{"Snapshot edges", func(s, e int64) error { _, _, err := g.Query(2).Window(s, e).Snapshot(1).First(ctx); return err }},
		{"HistoricalIndex", func(s, e int64) error { _, err := g.HistoricalIndex(ctx, s, e); return err }},
	}
	cases := []struct {
		name       string
		start, end int64
		want       error
	}{
		{"inverted", 14, 10, tkc.ErrEmptyRange},
		{"inverted single", 11, 10, tkc.ErrEmptyRange},
		{"misses all timestamps", 100, 200, tkc.ErrNoTimestamps},
		{"before all timestamps", -50, 5, tkc.ErrNoTimestamps},
		{"valid", 10, 14, nil},
	}
	for _, ep := range entryPoints {
		for _, c := range cases {
			err := ep.call(c.start, c.end)
			if c.want == nil {
				if err != nil {
					t.Errorf("%s(%d, %d) = %v, want nil", ep.name, c.start, c.end, err)
				}
				continue
			}
			if !errors.Is(err, c.want) {
				t.Errorf("%s(%d, %d) = %v, want %v", ep.name, c.start, c.end, err, c.want)
			}
		}
	}
}

// TestHistoricalIndexRangeContract covers the query methods of a built
// HistoricalIndex, which resolve ranges against the indexed window.
func TestHistoricalIndexRangeContract(t *testing.T) {
	g := errGraph(t)
	ctx := context.Background()
	h, err := g.HistoricalIndex(ctx, 10, 14)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func(start, end int64) error
	}{
		{"Contains", func(s, e int64) error { _, err := h.Contains(1, 2, s, e); return err }},
		{"Query vertices", func(s, e int64) error {
			_, _, err := h.Query(2).Window(s, e).Project(tkc.ProjectVertices).First(ctx)
			return err
		}},
		{"Query edges", func(s, e int64) error { _, _, err := h.Query(2).Window(s, e).First(ctx); return err }},
		{"CoreNumber", func(s, e int64) error { _, err := h.CoreNumber(1, s, e); return err }},
	}
	for _, c := range calls {
		if err := c.call(14, 10); !errors.Is(err, tkc.ErrEmptyRange) {
			t.Errorf("%s inverted = %v, want ErrEmptyRange", c.name, err)
		}
		if err := c.call(100, 200); !errors.Is(err, tkc.ErrNoTimestamps) {
			t.Errorf("%s miss = %v, want ErrNoTimestamps", c.name, err)
		}
		if err := c.call(10, 14); err != nil {
			t.Errorf("%s valid = %v, want nil", c.name, err)
		}
	}
}

// TestKValidationContract locks the k (and h) parameter validation of the
// query entry points.
func TestKValidationContract(t *testing.T) {
	g := errGraph(t)
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"Collect":  func() error { _, err := g.Query(0).Window(10, 14).Collect(ctx); return err },
		"Count":    func() error { _, err := g.Query(-1).Window(10, 14).Count(ctx); return err },
		"Prepare":  func() error { _, err := g.Prepare(0, 10, 14); return err },
		"RunBatch": func() error { return g.RunBatch(ctx, []*tkc.Request{g.Query(0).Window(10, 14)})[0].Err },
		"Snapshot k": func() error {
			_, _, err := g.Query(0).Window(10, 14).Snapshot(1).Project(tkc.ProjectVertices).First(ctx)
			return err
		},
		"Snapshot h": func() error {
			_, _, err := g.Query(1).Window(10, 14).Snapshot(0).Project(tkc.ProjectVertices).First(ctx)
			return err
		},
		"Watch": func() error { _, err := g.Watch(0, 0); return err },
	} {
		err := call()
		if err == nil {
			t.Errorf("%s accepted invalid k", name)
			continue
		}
		if errors.Is(err, tkc.ErrEmptyRange) || errors.Is(err, tkc.ErrNoTimestamps) {
			t.Errorf("%s returned a range sentinel for bad k: %v", name, err)
		}
	}
}
