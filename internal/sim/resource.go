package sim

import "fmt"

// Resource models a unit-capacity hardware resource (a NoC link, a DRAM
// bank, a CXL lane group) with interval reservation: a request arriving
// at time t occupies the resource for dur starting at the earliest gap of
// length dur at or after t.
//
// Gap-filling (rather than a single busy-until watermark) matters because
// the simulator resolves a whole memory access at once: a miss reserves
// its response-path links hundreds of nanoseconds in the future, and a
// plain busy-until model would make those far-future reservations block
// earlier arrivals on links that are actually idle, collapsing the
// network at a few percent utilization. Interval reservation keeps the
// capacity accounting exact while letting earlier traffic use the gaps.
//
// The interval list holds only the live window: the reservations that
// end after the run's clock (SetClock). The event loop sets the clock to
// the time of each event it pops, and every reservation an access makes
// arrives at or after that time, since a path only adds latency. An
// interval that ends at or before the clock therefore can never be the
// first one ending after a later arrival, and merging with it would
// only change the representation, so dropping it changes no (start,
// end). The window stays small (7-15 intervals on average and at most
// 127 across the ndpbench cells, about one per access in flight), so
// the list is one slice anchored at its front: Acquire copies the
// dropped prefix away and scans forward from the front.
type Resource struct {
	ivals     []ival // live intervals, disjoint and sorted by start
	clock     *Time  // the run's current time; nil never prunes
	busyTotal Time
}

type ival struct {
	start, end Time
}

// SetClock attaches the run's clock. The owner advances *clock without
// ever moving it back, and never issues an Acquire before it; Acquire
// panics on such an arrival. A nil clock (the default) keeps every
// reservation.
func (r *Resource) SetClock(clock *Time) { r.clock = clock }

// Acquire reserves the resource for dur at the earliest gap at or after
// t. It returns the actual start time and the completion time.
func (r *Resource) Acquire(t Time, dur Time) (start, end Time) {
	if r.clock != nil {
		r.prune(t)
	}
	if dur <= 0 {
		return t, t
	}
	iv := r.ivals
	i := 0
	for i < len(iv) && iv[i].end <= t {
		i++ // gaps before the first interval ending after t cannot serve it
	}
	cur := t
	for ; i < len(iv); i++ {
		if cur+dur <= iv[i].start {
			break // fits in the gap before interval i
		}
		cur = iv[i].end // ends increase, and the first one lies past t
	}
	start, end = cur, cur+dur
	r.insert(i, ival{start, end})
	r.busyTotal += dur
	return start, end
}

// prune drops the intervals that end at or before the clock, after
// checking that an arrival at t respects it.
func (r *Resource) prune(t Time) {
	now := *r.clock
	if t < now {
		panic(fmt.Sprintf("sim: Acquire arrives at %dps, before the clock at %dps", int64(t), int64(now)))
	}
	n := 0
	for n < len(r.ivals) && r.ivals[n].end <= now {
		n++
	}
	if n > 0 {
		r.ivals = r.ivals[:copy(r.ivals, r.ivals[n:])]
	}
}

// insert places iv at index i, merging with touching neighbours.
func (r *Resource) insert(i int, iv ival) {
	s := r.ivals
	mergedPrev := i > 0 && s[i-1].end == iv.start
	mergedNext := i < len(s) && s[i].start == iv.end
	switch {
	case mergedPrev && mergedNext:
		s[i-1].end = s[i].end
		r.ivals = append(s[:i], s[i+1:]...)
	case mergedPrev:
		s[i-1].end = iv.end
	case mergedNext:
		s[i].start = iv.start
	default:
		s = append(s, ival{})
		copy(s[i+1:], s[i:])
		s[i] = iv
		r.ivals = s
	}
}

// Live reports how many reservations the resource holds.
func (r *Resource) Live() int { return len(r.ivals) }

// BusyTotal reports the cumulative reserved time.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// Reset clears the reservation state (used between independent runs);
// the clock stays attached.
func (r *Resource) Reset() {
	r.ivals = r.ivals[:0]
	r.busyTotal = 0
}
