package mem

import (
	"math/rand/v2"
	"testing"
)

// mapSlotSchedule is the map-backed slot schedule the chunked one replaced,
// kept verbatim as the reference its grants must reproduce.
type mapSlotSchedule struct {
	slotCycles  uint64
	capacity    int
	usage       map[uint64]int
	maxSlot     uint64
	horizon     uint64
	sincePrune  int
	pruneWindow uint64
}

func newMapSlotSchedule(slotCycles uint64, capacity int) *mapSlotSchedule {
	if slotCycles == 0 {
		slotCycles = 1
	}
	if capacity <= 0 {
		capacity = 1
	}
	return &mapSlotSchedule{
		slotCycles:  slotCycles,
		capacity:    capacity,
		usage:       make(map[uint64]int),
		pruneWindow: 1 << 17,
	}
}

func (s *mapSlotSchedule) reserve(want uint64) uint64 {
	slot := want / s.slotCycles
	if slot < s.horizon {
		slot = s.horizon
	}
	for s.usage[slot] >= s.capacity {
		slot++
	}
	s.usage[slot]++
	if slot > s.maxSlot {
		s.maxSlot = slot
	}
	s.sincePrune++
	if s.sincePrune >= 1<<14 {
		s.prune()
	}
	start := slot * s.slotCycles
	if start < want {
		start = want
	}
	return start
}

func (s *mapSlotSchedule) prune() {
	s.sincePrune = 0
	if s.maxSlot < s.pruneWindow {
		return
	}
	cutoff := s.maxSlot - s.pruneWindow
	for slot := range s.usage {
		if slot < cutoff {
			delete(s.usage, slot)
		}
	}
	if cutoff > s.horizon {
		s.horizon = cutoff
	}
}

// scheduleStream generates one request stream shape from a seeded source.
type scheduleStream struct {
	name string
	gen  func(r *rand.Rand, slotCycles uint64, emit func(want uint64))
}

var scheduleStreams = []scheduleStream{
	{
		// A clock advancing about one request per slot with requests
		// scattered behind and ahead of it: the simulator's out-of-order
		// issue. 150k requests cross the 2^14-grant prune several times and
		// push the horizon past 2^17 slots.
		name: "out-of-order",
		gen: func(r *rand.Rand, slotCycles uint64, emit func(uint64)) {
			now := uint64(0)
			for range 150_000 {
				now += r.Uint64N(3 * slotCycles)
				skew := r.Uint64N(1000 * slotCycles)
				if r.IntN(2) == 0 && skew <= now {
					emit(now - skew)
				} else {
					emit(now + skew/8)
				}
			}
		},
	},
	{
		// Bursts far denser than the capacity saturate long runs of
		// slots, so the grant scan walks across chunk edges. The clock
		// advances about one burst's worth of slots per round, so later
		// bursts land inside the backlog the earlier ones left.
		name: "saturated-backlog",
		gen: func(r *rand.Rand, slotCycles uint64, emit func(uint64)) {
			now := uint64(0)
			for range 20 {
				burst := 300 + r.Uint64N(1500)
				for range burst {
					emit(now + r.Uint64N(burst/4*slotCycles+1))
				}
				now += (burst/2 + r.Uint64N(burst)) * slotCycles
			}
		},
	},
	{
		// Requests pinned to just below and above chunk edges, in both
		// orders.
		name: "chunk-edges",
		gen: func(r *rand.Rand, slotCycles uint64, emit func(uint64)) {
			for edge := uint64(1); edge < 200; edge++ {
				base := edge * chunkSlots * slotCycles
				for range 50 {
					off := r.Uint64N(8 * slotCycles)
					emit(base + off)
					emit(base - 1 - off)
				}
			}
		},
	},
	{
		// Every other request lags the clock by just under the prune
		// window, so it lands just above the horizon, on slots that earlier
		// lagging requests filled: the chunk holding the horizon must keep
		// its counts across prunes.
		name: "window-edge",
		gen: func(r *rand.Rand, slotCycles uint64, emit func(uint64)) {
			now := uint64(0)
			for range 100_000 {
				now += r.Uint64N(5) * slotCycles
				emit(now)
				if lag := (pruneWindow - 1 - r.Uint64N(6000)) * slotCycles; lag < now {
					emit(now - lag)
				}
			}
		},
	},
	{
		// A far-future request, then a run of requests from the old
		// present: once the next prune moves the horizon behind the
		// far-future grant, the last 2000 or so are granted at the horizon.
		name: "far-future-jump",
		gen: func(r *rand.Rand, slotCycles uint64, emit func(uint64)) {
			now := uint64(0)
			for range 5000 {
				now += r.Uint64N(3 * slotCycles)
				emit(now)
			}
			emit(now + 1_000_000_000*slotCycles)
			for range pruneEvery - 3000 {
				now += r.Uint64N(3 * slotCycles)
				emit(now - r.Uint64N(min(now, 500*slotCycles)+1))
			}
		},
	},
}

// TestSlotScheduleMatchesMapReference drives the chunked schedule and the
// map-backed reference with the same seeded request streams and requires
// the same grant for every request, across capacities and slot widths.
func TestSlotScheduleMatchesMapReference(t *testing.T) {
	for _, stream := range scheduleStreams {
		for _, capacity := range []int{1, 2, 3} {
			for _, slotCycles := range []uint64{1, 14} {
				got := newSlotSchedule(slotCycles, capacity)
				want := newMapSlotSchedule(slotCycles, capacity)
				r := rand.New(rand.NewPCG(uint64(capacity), slotCycles))
				n, clamped := 0, 0
				stream.gen(r, slotCycles, func(req uint64) {
					n++
					if req/slotCycles < want.horizon {
						clamped++
					}
					g, w := got.reserve(req), want.reserve(req)
					if g != w {
						t.Fatalf("%s cap=%d slot=%d: request %d at cycle %d granted at %d, reference %d",
							stream.name, capacity, slotCycles, n, req, g, w)
					}
				})
				if got.horizon != want.horizon || got.maxSlot != want.maxSlot {
					t.Fatalf("%s cap=%d slot=%d: horizon/max %d/%d, reference %d/%d",
						stream.name, capacity, slotCycles, got.horizon, got.maxSlot, want.horizon, want.maxSlot)
				}
				if stream.name == "far-future-jump" && clamped == 0 {
					t.Fatalf("%s cap=%d slot=%d: no request fell below the horizon", stream.name, capacity, slotCycles)
				}
				// Pruning recycles every chunk wholly below the horizon.
				if c := got.chunks[0]; (c.num+1)<<chunkBits <= got.horizon {
					t.Fatalf("%s cap=%d slot=%d: chunk %d below the horizon %d survived the prune",
						stream.name, capacity, slotCycles, c.num, got.horizon)
				}
			}
		}
	}
}

// TestSlotScheduleHorizonClamp pins the horizon contract directly: a
// request below the horizon is granted at the horizon, not at its own
// cycle.
func TestSlotScheduleHorizonClamp(t *testing.T) {
	s := newSlotSchedule(1, 1)
	far := uint64(10 * pruneWindow)
	s.reserve(far)
	for range pruneEvery - 1 {
		s.reserve(0)
	}
	if want := far - pruneWindow; s.horizon != want {
		t.Fatalf("horizon %d after the prune, want %d", s.horizon, want)
	}
	if got := s.reserve(5); got != s.horizon {
		t.Fatalf("request below the horizon granted at %d, want the horizon %d", got, s.horizon)
	}
}

// TestSlotScheduleCapacityBound rejects a capacity the chunk counter
// cannot hold.
func TestSlotScheduleCapacityBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity beyond the counter accepted")
		}
	}()
	newSlotSchedule(1, maxSlotCapacity+1)
}
