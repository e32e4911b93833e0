// Command streamingfraud demonstrates the dynamic append subsystem on a
// live fraud-detection scenario: a payment network ingests transaction
// batches continuously, and a Watcher maintains the temporal k-cores of
// the trailing window so collusion rings — accounts that all transact
// with each other within a short span — surface the moment they form,
// without ever rebuilding the graph or its indexes from scratch.
//
// Background traffic is sparse and random, so it forms no 3-core. The
// planted ring starts cycling money at t=600; every member keeps paying
// several others inside narrow bursts, which is exactly a temporal 3-core
// confined to a small window.
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
	accounts  = 400
	ringSize  = 6
	ringStart = 600 // the ring activates at this time
	span      = 120 // the monitor watches the trailing 2 minutes
	batchSize = 250
	horizon   = 1200
)

func main() {
	r := rand.New(rand.NewSource(7))

	// Ring members are ordinary-looking accounts.
	ring := make([]int64, ringSize)
	for i := range ring {
		ring[i] = int64(100 + i)
	}

	stream := synthesise(r, ring)
	g, err := tkc.NewGraph(stream[:batchSize])
	if err != nil {
		log.Fatal(err)
	}
	w, err := g.Watch(3, span)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("monitoring %d accounts for 3-rings in the trailing %d time units\n\n", accounts, span)
	alerted := false
	for i := batchSize; i < len(stream); i += batchSize {
		j := i + batchSize
		if j > len(stream) {
			j = len(stream)
		}
		if _, err := w.Append(stream[i:j]...); err != nil {
			log.Fatal(err)
		}
		ws, we, err := w.Window()
		if err != nil {
			log.Fatal(err)
		}
		cores, err := w.Query().Collect(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if len(cores) == 0 {
			fmt.Printf("t=[%4d,%4d] %4d txns ingested: clean\n", ws, we, j)
			continue
		}
		members := suspects(cores)
		fmt.Printf("t=[%4d,%4d] %4d txns ingested: ALERT — %d dense ring window(s), accounts %v\n",
			ws, we, j, len(cores), members)
		if !alerted {
			alerted = true
			c := cores[0]
			fmt.Printf("           first ring confined to [%d,%d]: every member paid >=3 others inside it\n",
				c.Start, c.End)
		}
	}

	st := w.Stats()
	fmt.Printf("\ningested %d transactions; %d incremental refreshes (%.1fms), %d rebuilds (%.1fms)\n",
		g.NumEdges(), st.Patches, st.PatchTime.Seconds()*1000, st.Rebuilds, st.RebuildTime.Seconds()*1000)
}

// synthesise produces the time-ordered transaction stream: uniform
// background noise plus the ring's bursts after ringStart.
func synthesise(r *rand.Rand, ring []int64) []tkc.Edge {
	var stream []tkc.Edge
	for t := int64(1); t <= horizon; t++ {
		// Background: a couple of random payments per tick; random pairs
		// in a 400-account network almost never close a dense subgraph.
		for i := 0; i < 2+r.Intn(3); i++ {
			u, v := int64(r.Intn(accounts)), int64(r.Intn(accounts))
			stream = append(stream, tkc.Edge{U: u, V: v, Time: t})
		}
		// The ring: from ringStart on, bursts where every member pays
		// several of the others within a few ticks.
		if t >= ringStart && t%40 < 5 {
			for i := 0; i < len(ring); i++ {
				for d := 1; d <= 3; d++ {
					stream = append(stream, tkc.Edge{U: ring[i], V: ring[(i+d)%len(ring)], Time: t})
				}
			}
		}
	}
	return stream
}

// suspects collects the distinct account labels over all reported cores.
func suspects(cores []tkc.Core) []int64 {
	set := map[int64]bool{}
	for _, c := range cores {
		for _, e := range c.Edges {
			set[e.U] = true
			set[e.V] = true
		}
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
