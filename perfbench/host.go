package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"time"
)

// hostWords is the pointer-chase table of hostSpeed: 8 MiB of int32, larger
// than the last-level cache, so most steps are memory accesses.
const hostWords = 1 << 21

// hostSpeed times two fixed pieces of work that use none of the
// repository's code, each the median of three tries: a pointer chase over a
// random cycle of hostWords entries (memory latency) and SHA-256 over 4 MiB
// (arithmetic). They move only with the speed of the host, so a set of runs
// whose metrics drift along with them ran on a slower host, not a slower
// program. They are recorded in the env line, never gated.
func hostSpeed() map[string]float64 {
	runtime.GC() // no collection of earlier garbage runs beside the probe
	next := make([]int32, hostWords)
	perm := rand.New(rand.NewSource(1)).Perm(hostWords)
	for i, p := range perm {
		next[p] = int32(perm[(i+1)%hostWords])
	}
	buf := make([]byte, 4<<20)
	var chase, hash []time.Duration
	sink := int32(0)
	for try := 0; try < 3; try++ {
		t := time.Now()
		j := int32(0)
		for i := 0; i < hostWords; i++ {
			j = next[j]
		}
		chase = append(chase, time.Since(t))
		sink += j
		t = time.Now()
		sum := sha256.Sum256(buf)
		hash = append(hash, time.Since(t))
		sink += int32(sum[0])
	}
	hostSink = sink
	return map[string]float64{
		"chase_ms":  ms(medianDur(chase)),
		"sha256_ms": ms(medianDur(hash)),
	}
}

// hostSink keeps the compiler from dropping hostSpeed's work.
var hostSink int32
