// Fraud rings: the paper's anti-money-laundering motivation. A transaction
// network hides a ring of accounts that cycle funds among themselves during
// a short burst. A static k-core over the whole history drowns the ring in
// background noise and reports an uninformative time span; enumerating
// temporal k-cores recovers both the ring membership and the exact burst
// window, without knowing either in advance.
//
// Run with: go run ./examples/fraudrings
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	tkc "temporalkcore"
)

const (
	accounts = 400
	days     = 365
	// Legitimate transfers, uniform over the year. The density is kept
	// below the 4-core emergence threshold (average degree ~6.8 for random
	// graphs), so dense subgraphs in the data are genuine signal — with a
	// much denser background the number of temporal k-cores explodes
	// quadratically in the range length, which is exactly the |R| blowup
	// the paper measures (see Figure 11), but not useful for a demo.
	background = 1100
	ringSize   = 8
	ringStart  = 200 // the laundering burst: days 200-214
	ringEnd    = 214
	k          = 4
)

func main() {
	r := rand.New(rand.NewSource(7))
	var edges []tkc.Edge

	// Legitimate traffic: random transfers between random accounts.
	for i := 0; i < background; i++ {
		u := int64(r.Intn(accounts))
		v := int64(r.Intn(accounts))
		if u == v {
			continue
		}
		edges = append(edges, tkc.Edge{U: u, V: v, Time: int64(1 + r.Intn(days))})
	}

	// The ring: accounts 1000..1007 transact densely during the burst.
	ring := make([]int64, ringSize)
	for i := range ring {
		ring[i] = int64(1000 + i)
	}
	for day := ringStart; day <= ringEnd; day++ {
		for i := 0; i < ringSize; i++ {
			for j := i + 1; j < ringSize; j++ {
				if r.Float64() < 0.35 {
					edges = append(edges, tkc.Edge{U: ring[i], V: ring[j], Time: int64(day)})
				}
			}
		}
	}

	g, err := tkc.NewGraph(edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transaction network: %d accounts, %d transfers over %d days\n\n",
		g.NumVertices(), g.NumEdges(), days)

	// A static analysis: the k-core of the entire year. The TTI spans most
	// of the year, so it says nothing about when the ring operated.
	full, err := g.Query(k).Window(1, days).Collect(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	var widest tkc.Core
	for _, c := range full {
		if c.End-c.Start > widest.End-widest.Start {
			widest = c
		}
	}
	fmt.Printf("static view: widest %d-core spans days [%d,%d] — no usable burst signal\n",
		k, widest.Start, widest.End)

	// The temporal view: the core with the narrowest TTI pinpoints the
	// burst, and its vertex set is the ring.
	tightest := widest
	for _, c := range full {
		if c.End-c.Start < tightest.End-tightest.Start {
			tightest = c
		}
	}
	fmt.Printf("temporal view: tightest %d-core spans days [%d,%d] (planted burst: [%d,%d])\n",
		k, tightest.Start, tightest.End, ringStart, ringEnd)

	suspects := vertexSet(tightest)
	fmt.Printf("suspect accounts: %v\n", suspects)

	hits := 0
	for _, s := range suspects {
		if s >= 1000 && s < 1000+ringSize {
			hits++
		}
	}
	fmt.Printf("recovered %d/%d ring members (plus %d bystanders)\n\n",
		hits, ringSize, len(suspects)-hits)

	// Distinct suspect groups across all windows, the compact future-work
	// representation: every dense group that ever existed, regardless of
	// window.
	sets, err := g.VertexSets(k, 1, days)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distinct dense account groups over the year: %d\n", len(sets))
}

func vertexSet(c tkc.Core) []int64 {
	seen := map[int64]bool{}
	for _, e := range c.Edges {
		seen[e.U] = true
		seen[e.V] = true
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
