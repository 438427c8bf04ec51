package main

import (
	"math"
	"testing"
)

// The chase must walk one cycle through the whole ring: a shorter cycle
// would stay in the host's caches and stop measuring memory latency.
func TestHostRefRingIsOneCycle(t *testing.T) {
	r := newHostRef()
	p, n := uint32(0), 0
	for {
		p = r.ring[p]
		n++
		if p == 0 || n > len(r.ring) {
			break
		}
	}
	if n != len(r.ring) {
		t.Fatalf("ring cycle through 0 has length %d, want %d", n, len(r.ring))
	}
}

func TestHostRefSpeed(t *testing.T) {
	if f := newHostRef().speed(); !(f > 0) || math.IsInf(f, 0) {
		t.Fatalf("speed factor %v, want a positive finite number", f)
	}
}
