package mem

import "math/bits"

// TLB models the host core's data TLB, which Widx shares instead of having
// its own translation hardware (Section 4.3). Two properties matter to the
// timing model:
//
//  1. a TLB miss costs a page-walk latency before the memory access can
//     issue, and
//  2. only a small number of translations may be in flight at once (2 in
//     Table 2), so a burst of misses from several walkers serializes.
type TLB struct {
	entries  int
	walkCyc  uint64
	inFlight int
	pageBits uint

	// Fully associative LRU over virtual page numbers. The n resident
	// translations occupy vpns[:n] (in no particular order) with their
	// last-use clocks in used[:n]; clocks are unique, so the LRU victim is
	// the single entry with the smallest one.
	vpns []uint64
	used []uint64
	n    int
	// index is an open-addressed, linearly probed hash of vpn to entry
	// position plus one (0 marks an empty cell); its size is a power of two
	// at least twice the entry count.
	index     []int32
	indexBits uint
	clock     uint64

	// Completion cycles of outstanding page walks (bounded by inFlight).
	walks []uint64

	hits   uint64
	misses uint64
}

// NewTLB builds a TLB with the given entry count, page size, walk latency and
// number of concurrent walks.
func NewTLB(entries, pageBytes int, walkCyc uint64, inFlight int) *TLB {
	if entries <= 0 || entries > maxTLBEntries || inFlight <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: invalid TLB parameters")
	}
	indexBits := uint(bits.Len(uint(2*entries - 1)))
	return &TLB{
		entries:   entries,
		walkCyc:   walkCyc,
		inFlight:  inFlight,
		pageBits:  uint(bits.TrailingZeros(uint(pageBytes))),
		vpns:      make([]uint64, entries),
		used:      make([]uint64, entries),
		index:     make([]int32, 1<<indexBits),
		indexBits: indexBits,
	}
}

// Translate models the translation of addr issued at the given cycle.
// It returns the cycle at which the translation is available (equal to cycle
// on a hit) and whether the access missed in the TLB.
func (t *TLB) Translate(addr uint64, cycle uint64) (ready uint64, miss bool) {
	vpn := addr >> t.pageBits
	t.clock++
	if e := t.lookup(vpn); e >= 0 {
		t.used[e] = t.clock
		t.hits++
		return cycle, false
	}
	t.misses++

	// A page walk must find a free walk slot: at most inFlight walks may be
	// outstanding, so the walk start is delayed until one finishes.
	start := cycle
	if len(t.walks) >= t.inFlight {
		// Drop finished walks first.
		live := t.walks[:0]
		for _, c := range t.walks {
			if c > cycle {
				live = append(live, c)
			}
		}
		t.walks = live
		if len(t.walks) >= t.inFlight {
			earliest := t.walks[0]
			idx := 0
			for i, c := range t.walks {
				if c < earliest {
					earliest, idx = c, i
				}
			}
			if earliest > start {
				start = earliest
			}
			// Reuse the freed slot.
			t.walks = append(t.walks[:idx], t.walks[idx+1:]...)
		}
	}
	done := start + t.walkCyc
	t.walks = append(t.walks, done)
	t.insert(vpn)
	return done, true
}

// home returns vpn's preferred index cell (Fibonacci hashing).
func (t *TLB) home(vpn uint64) int {
	return int((vpn * 0x9e3779b97f4a7c15) >> (64 - t.indexBits))
}

// lookup returns vpn's entry position, or -1 when it is not resident.
func (t *TLB) lookup(vpn uint64) int {
	mask := len(t.index) - 1
	for i := t.home(vpn); ; i = (i + 1) & mask {
		e := int(t.index[i]) - 1
		if e < 0 || t.vpns[e] == vpn {
			return e
		}
	}
}

// cell returns the index cell holding entry position e.
func (t *TLB) cell(e int) int {
	mask := len(t.index) - 1
	i := t.home(t.vpns[e])
	for int(t.index[i])-1 != e {
		i = (i + 1) & mask
	}
	return i
}

// insert refreshes or adds the page at the current clock. A full TLB evicts
// its LRU entry first, even when vpn is already resident (a warm-up
// re-touch): warm-state snapshots depend on that victim choice.
func (t *TLB) insert(vpn uint64) {
	if t.n >= t.entries {
		victim := 0
		for e := 1; e < t.n; e++ {
			if t.used[e] < t.used[victim] {
				victim = e
			}
		}
		t.remove(victim)
	}
	if e := t.lookup(vpn); e >= 0 {
		t.used[e] = t.clock
		return
	}
	t.add(vpn, t.clock)
}

// add appends a translation known not to be resident.
func (t *TLB) add(vpn, used uint64) {
	mask := len(t.index) - 1
	i := t.home(vpn)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.vpns[t.n], t.used[t.n] = vpn, used
	t.n++
	t.index[i] = int32(t.n)
}

// remove deletes entry position e: the last entry moves into its position
// and the index closes the gap by backward-shift deletion.
func (t *TLB) remove(e int) {
	mask := len(t.index) - 1
	hole := t.cell(e)
	for i := (hole + 1) & mask; t.index[i] != 0; i = (i + 1) & mask {
		// An entry may fill the hole if its home does not lie cyclically
		// in (hole, i].
		if h := t.home(t.vpns[t.index[i]-1]); (i-h)&mask >= (i-hole)&mask {
			t.index[hole] = t.index[i]
			hole = i
		}
	}
	t.index[hole] = 0
	if last := t.n - 1; e != last {
		t.index[t.cell(last)] = int32(e + 1)
		t.vpns[e], t.used[e] = t.vpns[last], t.used[last]
	}
	t.n--
}

// WarmPage pre-installs the translation for addr, used when the simulator
// starts measurement from a warmed state.
func (t *TLB) WarmPage(addr uint64) {
	t.clock++
	t.insert(addr >> t.pageBits)
}

// Hits returns the TLB hit count since the last reset.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the TLB miss count since the last reset.
func (t *TLB) Misses() uint64 { return t.misses }

// MissRatio returns misses / (hits + misses), or 0 with no accesses.
func (t *TLB) MissRatio() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.misses) / float64(total)
}

// ResetCounters clears hit/miss counters but keeps TLB content.
func (t *TLB) ResetCounters() { t.hits, t.misses = 0, 0 }

// Reset clears content, counters and outstanding walks.
func (t *TLB) Reset() {
	t.clear()
	t.walks = nil
	t.clock, t.hits, t.misses = 0, 0, 0
}

// clear drops every resident translation.
func (t *TLB) clear() {
	clear(t.index)
	t.n = 0
}
