// Misinformation bursts: the paper's social-network motivation. A bot farm
// amplifies content in several short bursts at different times. Any
// single-window query can miss bursts that do not align with it; exhaustive
// temporal k-core enumeration examines every window and recovers each burst
// — and shows the same troll accounts recurring across them.
//
// Run with: go run ./examples/misinfo
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
	users      = 600
	hours      = 720  // one month
	organic    = 1700 // kept below the 4-core threshold; see examples/fraudrings
	botCount   = 10
	k          = 4
	burstWidth = 10
)

var burstStarts = []int{80, 350, 610} // three amplification campaigns

func main() {
	r := rand.New(rand.NewSource(21))
	var edges []tkc.Edge

	// Organic interactions (replies, retweets) all month.
	for i := 0; i < organic; i++ {
		u := int64(r.Intn(users))
		v := int64(r.Intn(users))
		if u == v {
			continue
		}
		edges = append(edges, tkc.Edge{U: u, V: v, Time: int64(1 + r.Intn(hours))})
	}

	// The bot farm: accounts 9000..9009 interact densely during each burst
	// (mutual retweet rings), quiet otherwise.
	for _, bs := range burstStarts {
		for h := bs; h < bs+burstWidth; h++ {
			for i := 0; i < botCount; i++ {
				for j := i + 1; j < botCount; j++ {
					if r.Float64() < 0.3 {
						edges = append(edges, tkc.Edge{U: int64(9000 + i), V: int64(9000 + j), Time: int64(h)})
					}
				}
			}
		}
	}

	g, err := tkc.NewGraph(edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interaction graph: %d users, %d interactions over %d hours\n\n",
		g.NumVertices(), g.NumEdges(), hours)

	// Enumerate every temporal k-core of the month and keep the windows
	// that are suspiciously short (tight bursts of coordinated density).
	type burst struct {
		start, end int64
		members    []int64
	}
	var bursts []burst
	var stats tkc.QueryStats
	for c, err := range g.Query(k).Window(1, hours).Stats(&stats).Seq(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		if c.End-c.Start <= 2*burstWidth {
			bursts = append(bursts, burst{start: c.Start, end: c.End, members: members(c)})
		}
	}
	fmt.Printf("examined %d temporal %d-cores (|R|=%d edges)\n", stats.Cores, k, stats.Edges)
	fmt.Printf("tight bursts (span <= %dh): %d\n\n", 2*burstWidth, len(bursts))

	// Cluster the tight bursts by membership: recurring identical member
	// sets across distant windows are the signature of a bot farm.
	byMembers := map[string][]burst{}
	for _, b := range bursts {
		byMembers[fmt.Sprint(b.members)] = append(byMembers[fmt.Sprint(b.members)], b)
	}
	for key, group := range byMembers {
		windows := map[string]bool{}
		for _, b := range group {
			// Bucket by coarse window so overlapping TTIs of one campaign
			// count once.
			windows[fmt.Sprintf("%d", b.start/50)] = true
		}
		if len(windows) >= 2 {
			fmt.Printf("recurring dense group %s\n", key)
			earliest := map[string]burst{}
			for _, b := range group {
				bucket := fmt.Sprintf("%d", b.start/50)
				if cur, ok := earliest[bucket]; !ok || b.end-b.start < cur.end-cur.start {
					earliest[bucket] = b
				}
			}
			spans := make([]string, 0, len(earliest))
			for _, b := range earliest {
				spans = append(spans, fmt.Sprintf("[%d,%d]", b.start, b.end))
			}
			sort.Strings(spans)
			fmt.Printf("  active in %d separate campaigns, tightest windows: %v\n", len(windows), spans)
			fmt.Printf("  planted campaigns started at hours %v\n", burstStarts)
		}
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
