package mem

import (
	"math/rand/v2"
	"testing"
)

// hotStream is a steady-state access stream over a default machine: hit
// replays one block; miss cycles through 2^17 blocks, 32 per LLC set, with
// a stride that also lands on a new page every access, so each access
// misses the TLB, the L1 and the LLC and takes a memory-controller grant.
type hotStream struct {
	h     *Hierarchy
	hit   bool
	i     uint64
	cycle uint64
}

func newHotStream(hit bool) *hotStream {
	s := &hotStream{h: NewHierarchy(DefaultConfig()), hit: hit}
	// Long enough for the slot schedules to prune and recycle chunks, and
	// for every buffer on the path to reach its steady size.
	for range 300_000 {
		s.step()
	}
	return s
}

func (s *hotStream) step() {
	addr := uint64(0x40000000)
	if !s.hit {
		addr += (s.i % (1 << 17)) * (2<<20 + 64)
		s.cycle += 40
	} else {
		s.cycle++
	}
	s.i++
	s.h.Access(addr, s.cycle, Load)
}

// TestHotPathAllocationFree guards the per-access path: steady-state
// Hierarchy.Access, on the hit path and on the miss path (TLB walk, MSHR
// and fill-buffer gates, memory-controller grant), and slotSchedule.reserve
// allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	for _, hit := range []bool{true, false} {
		s := newHotStream(hit)
		if st := s.h.Stats(); !hit && (st.LLCMisses < st.Loads/2 || st.TLBMisses < st.Loads/2) {
			t.Fatalf("miss stream mostly hits: %d loads, %d LLC misses, %d TLB misses", st.Loads, st.LLCMisses, st.TLBMisses)
		}
		if allocs := testing.AllocsPerRun(20_000, s.step); allocs != 0 {
			t.Errorf("Access (hit=%v) allocates %v times per call", hit, allocs)
		}
	}
	sched := newSlotSchedule(1, 2)
	want := uint64(0)
	reserve := func() {
		want++
		sched.reserve(want - want%7)
	}
	for range 300_000 {
		reserve()
	}
	if allocs := testing.AllocsPerRun(20_000, reserve); allocs != 0 {
		t.Errorf("slotSchedule.reserve allocates %v times per call", allocs)
	}
}

// BenchmarkSlotScheduleReserve measures one grant on a two-per-slot
// schedule under seeded out-of-order requests around an advancing clock.
func BenchmarkSlotScheduleReserve(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	wants := make([]uint64, 1<<16)
	now := uint64(1 << 20)
	for i := range wants {
		now += r.Uint64N(3)
		wants[i] = now - r.Uint64N(64)
	}
	s := newSlotSchedule(1, 2)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		// Each lap of the request slice replays it one lap later.
		lap := uint64(i>>16) * (now + 64)
		s.reserve(wants[i&(1<<16-1)] + lap)
	}
}

// BenchmarkHierarchyAccess measures one steady-state load on the hit path
// and on the miss path of a default machine.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, c := range []struct {
		name string
		hit  bool
	}{{"hit", true}, {"miss", false}} {
		b.Run(c.name, func(b *testing.B) {
			s := newHotStream(c.hit)
			b.ReportAllocs()
			for b.Loop() {
				s.step()
			}
		})
	}
}
