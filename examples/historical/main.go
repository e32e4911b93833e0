// Historical k-core queries: build the multi-k PHC-style index once, then
// answer point-in-time cohesion questions instantly — "was this account
// inside a dense cluster during that week?", "how cohesive was this user's
// neighbourhood in March?". This is the foundation (reference [13]) the
// temporal k-core enumeration of this library builds on.
//
// Run with: go run ./examples/historical
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	tkc "temporalkcore"
)

const (
	users = 300
	weeks = 52
)

func main() {
	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	var edges []tkc.Edge

	// A year of weekly interactions with one tightly knit group (accounts
	// 100..105) that is only active in weeks 10-14.
	for i := 0; i < 2200; i++ {
		u := int64(r.Intn(users))
		v := int64(r.Intn(users))
		if u == v {
			continue
		}
		edges = append(edges, tkc.Edge{U: u, V: v, Time: int64(1 + r.Intn(weeks))})
	}
	for w := 10; w <= 14; w++ {
		for i := 100; i <= 105; i++ {
			for j := i + 1; j <= 105; j++ {
				if r.Float64() < 0.6 {
					edges = append(edges, tkc.Edge{U: int64(i), V: int64(j), Time: int64(w)})
				}
			}
		}
	}

	g, err := tkc.NewGraph(edges)
	if err != nil {
		log.Fatal(err)
	}

	// One-off index construction covering the whole year, all k at once.
	h, err := g.HistoricalIndex(ctx, 1, weeks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vertices, %d edges: kmax=%d, %d labels\n\n",
		g.NumVertices(), g.NumEdges(), h.KMax(), h.Size())

	// Point queries: cohesion of account 100 in different periods.
	for _, period := range [][2]int64{{10, 14}, {20, 24}, {1, 52}} {
		cn, err := h.CoreNumber(100, period[0], period[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("account 100, weeks [%d,%d]: core number %d\n", period[0], period[1], cn)
	}

	// Membership of the 4-core during the active burst.
	core, _, err := h.Query(4).Window(10, 14).Project(tkc.ProjectVertices).First(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n4-core members during weeks [10,14]: %v\n", core.Vertices)

	// The index serialises; a deployment builds it offline and ships it.
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()
	back, err := g.LoadHistoricalIndex(&buf)
	if err != nil {
		log.Fatal(err)
	}
	in, err := back.Contains(103, 4, 10, 14)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nindex round-trip: %d bytes; account 103 in the burst 4-core: %v\n", size, in)
}
