package mem

import (
	"cmp"
	"math"
	"slices"
)

// slotSchedule models a resource with a fixed per-slot capacity (e.g. an L1
// port array that accepts two accesses per cycle, or a memory controller that
// starts one block transfer per service interval). Unlike a "next free cycle"
// counter, it accepts requests arriving out of time order, which the
// simulator produces because it processes one work item to completion before
// the next even though their lifetimes overlap: a late request still takes
// the earliest slot with room at or after its own cycle.
//
// That holds only within a bounded window. The schedule tracks slots no
// older than its horizon, which trails the most recent grant by pruneWindow
// slots and advances every pruneEvery grants. A request below the horizon
// is granted at the horizon (or the first slot with room after it), not at
// its own cycle: the horizon clamp is part of the timing contract, and every
// implementation of the schedule must reproduce it.
//
// Usage counts live in fixed-size chunks of chunkSlots narrow counters,
// kept in ascending slot order; reserve scans saturated slots inside one
// array and goes back to the chunk index only at a chunk edge. Pruning drops
// whole chunks below the horizon, which is exact because the clamp makes
// every slot below the horizon unreachable.
type slotSchedule struct {
	// slotCycles is the width of one slot in cycles (1 for L1 ports,
	// the service interval for a memory controller).
	slotCycles uint64
	// capacity is how many grants fit in one slot.
	capacity uint16

	// chunks holds the tracked chunks in ascending number order; last is the
	// most recently used one and free recycles pruned chunks.
	chunks []*slotChunk
	last   *slotChunk
	free   []*slotChunk

	maxSlot uint64
	// horizon is the oldest slot still reachable; requests below it are
	// granted from it.
	horizon    uint64
	sincePrune int
}

const (
	// chunkBits sizes a chunk at 2^12 slots (8 KiB of counters).
	chunkBits  = 12
	chunkSlots = 1 << chunkBits
	// pruneEvery is the grant count between horizon advances, and
	// pruneWindow how many slots the horizon trails the latest grant.
	// Simulated units run at most a few thousand cycles apart, so a
	// 2^17-slot window is conservative.
	pruneEvery  = 1 << 14
	pruneWindow = 1 << 17
	// maxSlotCapacity is the largest per-slot capacity a chunk counter holds.
	maxSlotCapacity = math.MaxUint16
)

// slotChunk counts the grants of chunkSlots consecutive slots, starting at
// slot num<<chunkBits.
type slotChunk struct {
	num   uint64
	usage [chunkSlots]uint16
}

// newSlotSchedule builds a schedule. A zero slotCycles is taken as 1 and a
// non-positive capacity as 1; a capacity above maxSlotCapacity panics
// (AgentSpec.Validate bounds L1Ports below it).
func newSlotSchedule(slotCycles uint64, capacity int) *slotSchedule {
	if slotCycles == 0 {
		slotCycles = 1
	}
	if capacity <= 0 {
		capacity = 1
	}
	if capacity > maxSlotCapacity {
		panic("mem: slot capacity exceeds the chunk counter")
	}
	return &slotSchedule{slotCycles: slotCycles, capacity: uint16(capacity)}
}

// reserve grants the earliest slot with room at or after max(the requested
// cycle's slot, the horizon) and returns the cycle at which the grant begins.
func (s *slotSchedule) reserve(want uint64) uint64 {
	slot := want / s.slotCycles
	if slot < s.horizon {
		slot = s.horizon
	}
	c := s.chunk(slot >> chunkBits)
	i := slot & (chunkSlots - 1)
	for c.usage[i] >= s.capacity {
		if i++; i == chunkSlots {
			c, i = s.chunk(c.num+1), 0
		}
	}
	c.usage[i]++
	slot = c.num<<chunkBits | i
	if slot > s.maxSlot {
		s.maxSlot = slot
	}
	s.sincePrune++
	if s.sincePrune >= pruneEvery {
		s.prune()
	}
	start := slot * s.slotCycles
	if start < want {
		start = want
	}
	return start
}

// chunk returns chunk num, creating it (zeroed) if it is not tracked yet.
func (s *slotSchedule) chunk(num uint64) *slotChunk {
	if s.last != nil && s.last.num == num {
		return s.last
	}
	i, found := slices.BinarySearchFunc(s.chunks, num, func(c *slotChunk, n uint64) int {
		return cmp.Compare(c.num, n)
	})
	if !found {
		var c *slotChunk
		if n := len(s.free); n > 0 {
			c, s.free = s.free[n-1], s.free[:n-1]
			clear(c.usage[:])
		} else {
			c = new(slotChunk)
		}
		c.num = num
		s.chunks = slices.Insert(s.chunks, i, c)
	}
	s.last = s.chunks[i]
	return s.last
}

// prune advances the horizon to pruneWindow slots behind the most recent
// grant and recycles the chunks that lie wholly below it.
func (s *slotSchedule) prune() {
	s.sincePrune = 0
	if s.maxSlot < pruneWindow {
		return
	}
	if cutoff := s.maxSlot - pruneWindow; cutoff > s.horizon {
		s.horizon = cutoff
	}
	dead := 0
	for dead < len(s.chunks) && (s.chunks[dead].num+1)<<chunkBits <= s.horizon {
		if s.chunks[dead] == s.last {
			s.last = nil
		}
		dead++
	}
	s.free = append(s.free, s.chunks[:dead]...)
	s.chunks = append(s.chunks[:0], s.chunks[dead:]...)
}
