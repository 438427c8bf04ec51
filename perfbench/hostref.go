package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark's host is a share of a machine whose speed for the
// simulator's kind of work (map-heavy, cache-bound, pointer-chasing) swings
// within seconds and drifts by up to ~1.7x over minutes as other tenants
// load the shared caches and memory. Every end-to-end time is therefore
// reported in reference seconds: host seconds divided by the run's mean
// speed factor, which is how much slower than nominal a fixed reference
// workload runs, probed between the timed spans. The reference workload is
// the benchmark's own code and calls nothing in the simulator, so a
// simulator change cannot move it.

// refKernel is one part of the reference workload: run does a fixed amount
// of work and nominal is its host seconds on the 2-vCPU Xeon host the
// bounds were set on, in a calm phase.
type refKernel struct {
	name    string
	nominal float64
	run     func(*hostRef) uint64
}

var refKernels = []refKernel{
	{"chase", 0.078, (*hostRef).chase},
	{"map", 0.064, (*hostRef).mapInsert},
	{"sort", 0.072, (*hostRef).sortInts},
}

// hostRef holds the reference workload's inputs, built once and untimed.
type hostRef struct {
	ring []uint32 // one random cycle over 16 MiB, for a dependent-load chase
	keys []uint64 // random map keys
	ints []int    // random integers to sort
	sink uint64   // keeps the kernels' results live
}

// splitmix is the reference inputs' generator, fixed so that the reference
// work never changes.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newHostRef() *hostRef {
	rng := splitmix(0x5eed)
	r := &hostRef{ring: make([]uint32, 1<<22), keys: make([]uint64, 1<<17), ints: make([]int, 1<<19)}
	// Sattolo's shuffle of the identity gives a single cycle.
	for i := range r.ring {
		r.ring[i] = uint32(i)
	}
	for i := len(r.ring) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i))
		r.ring[i], r.ring[j] = r.ring[j], r.ring[i]
	}
	for i := range r.keys {
		r.keys[i] = rng.next()
	}
	for i := range r.ints {
		r.ints[i] = int(rng.next() >> 1)
	}
	return r
}

func (r *hostRef) chase() uint64 {
	p := uint32(0)
	for i := 0; i < 1<<19; i++ {
		p = r.ring[p]
	}
	return uint64(p)
}

func (r *hostRef) mapInsert() uint64 {
	var n uint64
	for rep := 0; rep < 4; rep++ {
		m := make(map[uint64]uint64)
		for _, k := range r.keys {
			m[k] += k
		}
		n += uint64(len(m))
	}
	return n
}

func (r *hostRef) sortInts() uint64 {
	s := append([]int(nil), r.ints...)
	sort.Ints(s)
	return uint64(s[len(s)/2])
}

// refReps is how often speed runs each kernel; it keeps the fastest run,
// so that a transient stall (a preemption, a page fault) does not count.
const refReps = 3

// speed runs the reference workload and returns the host's speed factor:
// the geometric mean over the kernels of host seconds over nominal seconds
// (1 on a calm host, 1.5 when the host is a third slower).
func (r *hostRef) speed() float64 {
	logSum := 0.0
	for _, k := range refKernels {
		best := math.Inf(1)
		for range refReps {
			t := time.Now()
			r.sink += k.run(r)
			best = min(best, time.Since(t).Seconds())
		}
		logSum += math.Log(best / k.nominal)
	}
	return math.Exp(logSum / float64(len(refKernels)))
}
