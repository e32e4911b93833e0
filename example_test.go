package temporalkcore_test

import (
	"context"
	"fmt"

	tkc "temporalkcore"
)

// The graph of the paper's Figure 1, queried for the temporal 2-cores of
// the range [1, 4] (the paper's Figure 2).
func ExampleGraph_Query() {
	ctx := context.Background()
	g, _ := tkc.NewGraph([]tkc.Edge{
		{U: 2, V: 9, Time: 1}, {U: 1, V: 4, Time: 2}, {U: 2, V: 3, Time: 2},
		{U: 1, V: 2, Time: 3}, {U: 2, V: 4, Time: 3}, {U: 3, V: 9, Time: 4},
		{U: 4, V: 8, Time: 4}, {U: 1, V: 6, Time: 5}, {U: 1, V: 7, Time: 5},
		{U: 2, V: 8, Time: 5}, {U: 6, V: 7, Time: 5}, {U: 1, V: 3, Time: 6},
		{U: 3, V: 5, Time: 6}, {U: 1, V: 5, Time: 7},
	})
	cores, _ := g.Query(2).Window(1, 4).Collect(ctx)
	for _, c := range cores {
		fmt.Printf("TTI=[%d,%d] %d edges\n", c.Start, c.End, len(c.Edges))
	}
	// Output:
	// TTI=[1,4] 6 edges
	// TTI=[2,3] 3 edges
}

// Streaming enumeration with early stop.
func ExampleRequest_Seq() {
	g, _ := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 1}, {U: 2, V: 3, Time: 2}, {U: 1, V: 3, Time: 3},
		{U: 3, V: 4, Time: 4}, {U: 4, V: 5, Time: 5}, {U: 3, V: 5, Time: 6},
		{U: 4, V: 5, Time: 7},
	})
	var stats tkc.QueryStats
	n := 0
	for range g.Query(2).Window(1, 7).Stats(&stats).Seq(context.Background()) {
		n++
		if n == 2 {
			break // stop after two results
		}
	}
	fmt.Println("visited:", stats.Cores)
	// Output:
	// visited: 2
}

// A vertex's core-time index: from each start time, the earliest window
// end at which the vertex joins a 2-core.
func ExampleGraph_CoreTimes() {
	g, _ := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 1}, {U: 2, V: 3, Time: 2}, {U: 1, V: 3, Time: 3},
	})
	ents, _ := g.CoreTimes(1, 2, 1, 3)
	for _, e := range ents {
		if e.Infinite {
			fmt.Printf("from %d: never\n", e.Start)
		} else {
			fmt.Printf("from %d: core by %d\n", e.Start, e.CoreTime)
		}
	}
	// Output:
	// from 1: core by 3
	// from 2: never
}

// Preparing a query once and reusing the core-time phase.
func ExampleGraph_Prepare() {
	ctx := context.Background()
	g, _ := tkc.NewGraph([]tkc.Edge{
		{U: 1, V: 2, Time: 1}, {U: 2, V: 3, Time: 2}, {U: 1, V: 3, Time: 3},
	})
	p, _ := g.Prepare(2, 1, 3)
	stats, _ := p.Query().Count(ctx)
	fmt.Printf("cores=%d |VCT|=%d |ECS|=%d\n", stats.Cores, p.VCTSize(), p.ECSSize())
	// Output:
	// cores=1 |VCT|=6 |ECS|=3
}
