package mem

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// sweepOccupancy is the accounting the cached occupancy tracker replaced:
// every advance rescans all entries once per constant-occupancy segment.
// It is the reference the tracker must reproduce.
func sweepOccupancy(hist []uint64, entries []mshrEntry, owner *Hierarchy,
	started bool, last, now uint64) (bool, uint64) {
	if !started {
		return true, now
	}
	for t := last; t < now; {
		live := 0
		next := now
		for _, e := range entries {
			if owner != nil && e.owner != owner {
				continue
			}
			if e.start <= t && e.complete > t {
				live++
			}
			if e.start > t && e.start < next {
				next = e.start
			}
			if e.complete > t && e.complete < next {
				next = e.complete
			}
		}
		if live < len(hist) {
			hist[live] += next - t
		} else if n := len(hist); n > 0 {
			hist[n-1] += next - t
		}
		t = next
	}
	return true, max(last, now)
}

// TestOccupancyMatchesSweep drives a shared and a per-agent tracker and
// the per-segment reference through seeded streams of advances (mostly
// forward, some backwards), entry additions (live at the anchor, in the
// future, or already complete), reaps of fully accounted entries and
// counter resets, and requires identical histograms and anchors after
// every step.
func TestOccupancyMatchesSweep(t *testing.T) {
	for seed := range uint64(20) {
		r := rand.New(rand.NewPCG(seed, 7))
		sl := NewSharedLevel(DefaultTopology())
		a, b := sl.NewAgent(sl.Topology().Agent("a")), sl.NewAgent(sl.Topology().Agent("b"))
		capacity := 1 + r.IntN(12)
		shared, own := newOccupancy(capacity), newOccupancy(capacity)
		refShared, refOwn := slices.Clone(shared.hist), slices.Clone(own.hist)
		var sStarted, oStarted bool
		var sLast, oLast uint64
		var entries []mshrEntry
		now := uint64(100)
		for step := range 3000 {
			switch op := r.IntN(10); {
			case op < 5:
				if r.IntN(6) == 0 {
					now -= min(now, r.Uint64N(40))
				} else {
					now += r.Uint64N(60)
				}
				shared.advance(entries, nil, now)
				own.advance(entries, a, now)
				sStarted, sLast = sweepOccupancy(refShared, entries, nil, sStarted, sLast, now)
				oStarted, oLast = sweepOccupancy(refOwn, entries, a, oStarted, oLast, now)
			case op < 8:
				owner := a
				if r.IntN(3) == 0 {
					owner = b
				}
				start := now + r.Uint64N(80) - min(now, 40)
				e := mshrEntry{start: start, complete: start + 1 + r.Uint64N(150), owner: owner}
				entries = append(entries, e)
				shared.add(e)
				if owner == a {
					own.add(e)
				}
			case op < 9:
				// Reap what both trackers have fully accounted, as
				// reapMSHRs does.
				entries = slices.DeleteFunc(entries, func(e mshrEntry) bool {
					return e.complete <= now && e.complete <= shared.last && e.complete <= own.last
				})
			default:
				if r.IntN(2) == 0 {
					shared = newOccupancy(capacity)
					refShared, sStarted = slices.Clone(shared.hist), false
				} else {
					own = newOccupancy(capacity)
					refOwn, oStarted = slices.Clone(own.hist), false
				}
			}
			if !slices.Equal(shared.hist, refShared) || shared.last != sLast && sStarted {
				t.Fatalf("seed %d step %d: shared hist %v last %d, reference %v last %d",
					seed, step, shared.hist, shared.last, refShared, sLast)
			}
			if !slices.Equal(own.hist, refOwn) || own.last != oLast && oStarted {
				t.Fatalf("seed %d step %d: agent hist %v last %d, reference %v last %d",
					seed, step, own.hist, own.last, refOwn, oLast)
			}
		}
	}
}
