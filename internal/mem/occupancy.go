package mem

// occupancy is a time-weighted histogram of live miss-handling entries:
// hist[k] counts the cycles exactly k entries were outstanding, the top
// bucket clamping occupancies at or above the histogram's capacity.
// Accounting starts at the first advance after a reset and covers
// [that cycle, last).
//
// The outstanding entries change only at their allocation and completion
// cycles, so the tracker caches the state at last: the live count there
// and the earliest allocation or completion after it. An advance that
// stays short of that event charges one constant-occupancy span without
// walking the entries; only crossing an event rescans them.
type occupancy struct {
	hist    []uint64
	last    uint64
	started bool

	// cached marks live and next as describing the entries at last.
	cached bool
	live   int
	next   uint64
}

// newOccupancy returns a tracker for up to capacity live entries.
func newOccupancy(capacity int) occupancy {
	return occupancy{hist: make([]uint64, capacity+1)}
}

// advance folds the span [last, now) into the histogram, counting at each
// instant the entries live at that instant — all of them when owner is nil,
// or only the owner's. A request arriving out of order (now <= last)
// contributes nothing; under the execution core's monotonic issue order the
// histogram is exact.
func (o *occupancy) advance(entries []mshrEntry, owner *Hierarchy, now uint64) {
	if !o.started {
		// Anchor accounting at the phase's first access rather than
		// charging the span from cycle zero (or from a previous phase).
		o.started, o.last, o.cached = true, now, false
		return
	}
	for o.last < now {
		if !o.cached {
			o.live, o.next = occupancyAt(entries, owner, o.last)
			o.cached = true
		}
		end := min(o.next, now)
		if n := len(o.hist); o.live >= n {
			o.hist[n-1] += end - o.last
		} else {
			o.hist[o.live] += end - o.last
		}
		o.last = end
		// An allocation or completion at the new anchor changes the state.
		o.cached = o.next > end
	}
}

// occupancyAt returns how many of the owner's entries (all entries when
// owner is nil) are live at cycle t, and the earliest allocation or
// completion after t (^0 when there is none). An entry occupies its slot
// over [start, complete).
func occupancyAt(entries []mshrEntry, owner *Hierarchy, t uint64) (live int, next uint64) {
	next = ^uint64(0)
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
	return live, next
}

// add updates the cached state for an entry newly added to the tracked
// set. Removing entries needs no update as long as only entries completed
// by last are removed: they are neither live at last nor have events
// after it.
func (o *occupancy) add(e mshrEntry) {
	if !o.cached {
		return
	}
	if e.start <= o.last && e.complete > o.last {
		o.live++
	}
	if e.start > o.last && e.start < o.next {
		o.next = e.start
	}
	if e.complete > o.last && e.complete < o.next {
		o.next = e.complete
	}
}
