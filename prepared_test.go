package temporalkcore_test

import (
	"context"
	"sync"
	"testing"

	tkc "temporalkcore"
)

func TestPreparedQueryMatchesDirect(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Prepare(2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := g.Query(2).Window(1, 7).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := p.Query().Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(prepared) {
		t.Fatalf("prepared %d cores, direct %d", len(prepared), len(direct))
	}
	if p.K() != 2 {
		t.Errorf("K = %d", p.K())
	}
	if s, e := p.Range(); s != 1 || e != 7 {
		t.Errorf("Range = %d..%d", s, e)
	}
	if p.VCTSize() != 24 || p.ECSSize() != 18 {
		t.Errorf("sizes %d/%d, want 24/18", p.VCTSize(), p.ECSSize())
	}
	qs, err := p.Query().Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Cores != int64(len(direct)) {
		t.Errorf("Count = %d, want %d", qs.Cores, len(direct))
	}
}

func TestPreparedCoreTime(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Prepare(2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Example 2 of the paper: CT_1(v1)=3, CT_3(v1)=5.
	te, inf, err := p.CoreTime(1, 1)
	if err != nil || inf || te != 3 {
		t.Errorf("CoreTime(v1, 1) = %d,%v,%v, want 3", te, inf, err)
	}
	te, inf, err = p.CoreTime(1, 3)
	if err != nil || inf || te != 5 {
		t.Errorf("CoreTime(v1, 3) = %d,%v,%v, want 5", te, inf, err)
	}
	_, inf, err = p.CoreTime(1, 7)
	if err != nil || !inf {
		t.Errorf("CoreTime(v1, 7) should be infinite, got inf=%v err=%v", inf, err)
	}
	// Past the range end.
	_, inf, _ = p.CoreTime(1, 99)
	if !inf {
		t.Error("CoreTime past range should be infinite")
	}
	if _, _, err := p.CoreTime(12345, 1); err == nil {
		t.Error("unknown vertex accepted")
	}
}

func TestPreparedValidation(t *testing.T) {
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Prepare(0, 1, 7); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := g.Prepare(2, 50, 60); err != tkc.ErrNoTimestamps {
		t.Errorf("empty range: %v", err)
	}
}

// TestPreparedConcurrent checks that one PreparedQuery can serve many
// goroutines (run with -race).
func TestPreparedConcurrent(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Prepare(2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int64, 8)
	for i := range counts {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			qs, err := p.Query().Count(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			counts[slot] = qs.Cores
		}(i)
	}
	wg.Wait()
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("concurrent counts differ: %v", counts)
		}
	}
}

// TestConcurrentGraphQueries checks that the Graph itself is safe for
// concurrent independent queries.
func TestConcurrentGraphQueries(t *testing.T) {
	ctx := context.Background()
	g, err := tkc.NewGraph(paperEdges(false))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if _, err := g.Query(1+k%2).Window(1, 7).Count(ctx); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}
