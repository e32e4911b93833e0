package temporalkcore_test

import (
	"context"
	"sort"
	"testing"

	tkc "temporalkcore"
)

func TestKHCoreAPI(t *testing.T) {
	// Triangle with doubled edges plus a one-off attachment.
	edges := []tkc.Edge{
		{U: 1, V: 2, Time: 1}, {U: 1, V: 2, Time: 2},
		{U: 2, V: 3, Time: 1}, {U: 2, V: 3, Time: 2},
		{U: 1, V: 3, Time: 1}, {U: 1, V: 3, Time: 2},
		{U: 3, V: 4, Time: 1},
	}
	g, err := tkc.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	members, err := khVertices(g, 2, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if len(members) != 3 || members[0] != 1 || members[2] != 3 {
		t.Errorf("(2,2)-core = %v, want [1 2 3]", members)
	}
	// h=1 degenerates to the plain 2-core, which picks up vertex 4? No:
	// vertex 4 has one neighbour only, so it still peels.
	members1, err := khVertices(g, 2, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(members1) != 3 {
		t.Errorf("(2,1)-core = %v, want the triangle", members1)
	}
	coreEdges, err := khEdges(g, 2, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(coreEdges) != 6 {
		t.Errorf("(2,2)-core edges = %d, want 6", len(coreEdges))
	}
	// Validation.
	if _, err := khVertices(g, 0, 1, 1, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := khVertices(g, 1, 0, 1, 2); err == nil {
		t.Error("h=0 accepted")
	}
	if _, err := khVertices(g, 1, 1, 50, 60); err != tkc.ErrNoTimestamps {
		t.Errorf("empty range: %v", err)
	}
	if _, err := khEdges(g, 0, 1, 1, 2); err == nil {
		t.Error("edges k=0 accepted")
	}
	if _, err := khEdges(g, 1, 1, 50, 60); err != tkc.ErrNoTimestamps {
		t.Errorf("edges empty range: %v", err)
	}
}

// khVertices returns the vertex labels of the (k, h)-core of the snapshot
// over [s, e], nil when it is empty.
func khVertices(g *tkc.Graph, k, h int, s, e int64) ([]int64, error) {
	c, _, err := g.Query(k).Window(s, e).Snapshot(h).Project(tkc.ProjectVertices).First(context.Background())
	return c.Vertices, err
}

// khEdges returns the temporal edges of the (k, h)-core of the snapshot
// over [s, e], nil when it is empty.
func khEdges(g *tkc.Graph, k, h int, s, e int64) ([]tkc.Edge, error) {
	c, _, err := g.Query(k).Window(s, e).Snapshot(h).First(context.Background())
	return c.Edges, err
}
