// Contact tracing: the paper's epidemiological motivation. Transmission
// clusters during an outbreak emerge and dissipate over short, irregular,
// initially unknown timeframes. Enumerating temporal k-cores over a whole
// monitoring period surfaces every fleeting high-contact cluster, so health
// authorities can reconstruct transmission chains without guessing windows.
//
// Run with: go run ./examples/contacttracing
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
	people  = 500
	daysObs = 120
	casual  = 700 // below the 3-core threshold; see examples/fraudrings
	k       = 3
)

// Outbreak clusters: (household/venue id, people, day range). Durations are
// deliberately irregular.
type cluster struct {
	base     int64
	size     int
	from, to int
}

var clusters = []cluster{
	{base: 7000, size: 6, from: 20, to: 24},   // a household gathering
	{base: 7100, size: 9, from: 45, to: 47},   // a two-day event
	{base: 7200, size: 5, from: 80, to: 92},   // a slow workplace cluster
	{base: 7300, size: 7, from: 101, to: 103}, // a weekend venue
}

func main() {
	r := rand.New(rand.NewSource(33))
	var edges []tkc.Edge

	// Casual contacts throughout the observation period.
	for i := 0; i < casual; i++ {
		u := int64(r.Intn(people))
		v := int64(r.Intn(people))
		if u == v {
			continue
		}
		edges = append(edges, tkc.Edge{U: u, V: v, Time: int64(1 + r.Intn(daysObs))})
	}

	// Planted high-contact clusters.
	for _, c := range clusters {
		for day := c.from; day <= c.to; day++ {
			for i := 0; i < c.size; i++ {
				for j := i + 1; j < c.size; j++ {
					if r.Float64() < 0.5 {
						edges = append(edges, tkc.Edge{U: c.base + int64(i), V: c.base + int64(j), Time: int64(day)})
					}
				}
			}
		}
	}

	g, err := tkc.NewGraph(edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contact network: %d people, %d contacts over %d days\n\n",
		g.NumVertices(), g.NumEdges(), daysObs)

	// Enumerate every temporal k-core; keep, per distinct member set, the
	// tightest window in which it was fully connected.
	type hit struct {
		start, end int64
	}
	tightest := map[string]hit{}
	memberSets := map[string][]int64{}
	var stats tkc.QueryStats
	for c, err := range g.Query(k).Window(1, daysObs).Stats(&stats).Seq(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		m := members(c)
		// Ignore big diffuse cores; clusters of interest are small.
		if len(m) > 12 {
			continue
		}
		key := fmt.Sprint(m)
		h, ok := tightest[key]
		if !ok || c.End-c.Start < h.end-h.start {
			tightest[key] = hit{start: c.Start, end: c.End}
			memberSets[key] = m
		}
	}
	fmt.Printf("examined %d temporal %d-cores\n", stats.Cores, k)
	fmt.Printf("candidate transmission clusters (small dense groups): %d\n\n", len(tightest))

	keys := make([]string, 0, len(tightest))
	for key := range tightest {
		keys = append(keys, key)
	}
	// Clusters starting on the same day print in member order, so the
	// listing does not follow the map's random iteration order.
	sort.Slice(keys, func(i, j int) bool {
		a, b := tightest[keys[i]], tightest[keys[j]]
		if a.start != b.start {
			return a.start < b.start
		}
		return keys[i] < keys[j]
	})
	for _, key := range keys {
		h := tightest[key]
		fmt.Printf("cluster active days [%d,%d]: people %v\n", h.start, h.end, memberSets[key])
	}

	fmt.Println("\nplanted outbreaks for comparison:")
	for _, c := range clusters {
		fmt.Printf("  people %d..%d active days [%d,%d]\n", c.base, c.base+int64(c.size)-1, c.from, c.to)
	}
}

func members(c tkc.Core) []int64 {
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
