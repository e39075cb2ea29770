package sim

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
// The interval list is a power-of-two ring buffer rather than a plain
// slice: a slice insert pays a memmove of every interval after the
// insertion point, which profiling once showed as the simulator's single
// largest CPU line. The ring shifts whichever side of the insertion
// point is shorter and prunes the front in O(1); the logical interval
// sequence, and therefore every Acquire result, is identical to the
// slice implementation's (TestResourceRingMatchesReference).
//
// Busy rings hold thousands of intervals, and the simulator's ~1,200
// live resources together hold megabytes of them, far more than L2. Yet
// the first interval ending after an arrival sits on average 3-5 slots
// from the tail across the ndpbench cells. Acquire therefore gallops
// back from the tail rather than bisecting from the middle, so a typical
// call touches only the ring's last cache line or two. Ends are strictly
// increasing (intervals are disjoint and sorted by start), so the gallop
// finds the same lower bound a bisection does.
type Resource struct {
	floor     Time   // time before which no reservation can start
	buf       []ival // ring storage; len is zero or a power of two
	head      int    // physical index of logical interval 0
	n         int    // live intervals, disjoint and sorted by start
	busyTotal Time
	// pruneAt is a lower bound on the earliest arrival that can fold
	// interval 0 out of the window: n == 0 || pruneAt <= at(0).end +
	// pruneWindow. Arrivals at or before it skip prune's front read.
	pruneAt Time
}

type ival struct {
	start, end Time
}

// pruneWindow bounds how far in the past an Acquire arrival may be
// relative to the latest pruning point; intervals older than this are
// folded into the floor. Measured over the eight ndpbench simulation
// cells (seed 1, 4000 accesses per core), the first interval ending after
// an arrival lay at most 125 intervals back from the tail, and no arrival
// was clamped to the floor, so neither this window nor maxIntervals
// changed a result there.
const pruneWindow = 200 * Microsecond

// maxIntervals caps the reservation list; beyond it the oldest intervals
// fold into the floor (turning gap-filling into busy-until for the
// pathological tail).
const maxIntervals = 8192

// at returns the interval at logical index i.
func (r *Resource) at(i int) *ival {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Acquire reserves the resource for dur at the earliest gap at or after
// t. It returns the actual start time and the completion time.
func (r *Resource) Acquire(t Time, dur Time) (start, end Time) {
	if t < r.floor {
		t = r.floor
	}
	if dur <= 0 {
		return t, t
	}
	i := r.firstEndAfter(t)
	cur := t
	for ; i < r.n; i++ {
		iv := r.at(i)
		if cur+dur <= iv.start {
			break // fits in the gap before interval i
		}
		if iv.end > cur {
			cur = iv.end
		}
	}
	start, end = cur, cur+dur
	r.insert(i, ival{start, end})
	r.busyTotal += dur
	r.prune(t)
	return start, end
}

// firstEndAfter returns the logical index of the first interval that
// ends after t (r.n if none does); gaps before it cannot serve a request
// arriving at t. It gallops back from the tail, probing n-1, n-2, n-4,
// ... until an interval ends at or before t, then bisects that bracket.
func (r *Resource) firstEndAfter(t Time) int {
	lo, hi := 0, r.n // at(i).end <= t for i < lo; at(i).end > t for i >= hi
	for d := 1; d <= r.n; d <<= 1 {
		j := r.n - d
		if r.at(j).end <= t {
			lo = j + 1
			break
		}
		hi = j
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid).end > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insert places iv at logical index i, merging with touching neighbours.
func (r *Resource) insert(i int, iv ival) {
	mergedPrev := i > 0 && r.at(i-1).end == iv.start
	mergedNext := i < r.n && r.at(i).start == iv.end
	switch {
	case mergedPrev && mergedNext:
		r.at(i - 1).end = r.at(i).end
		r.removeAt(i)
	case mergedPrev:
		r.at(i - 1).end = iv.end
	case mergedNext:
		r.at(i).start = iv.start
	default:
		r.insertAt(i, iv)
	}
}

// insertAt opens a slot at logical index i by shifting whichever side of
// the insertion point is shorter, then stores iv there.
func (r *Resource) insertAt(i int, iv ival) {
	if r.n == len(r.buf) {
		r.grow()
	}
	if i <= r.n-i {
		r.head = (r.head - 1) & (len(r.buf) - 1)
		r.shiftFrontLeft(i)
	} else {
		r.shiftTailRight(i)
	}
	r.n++
	*r.at(i) = iv
	if i == 0 {
		r.pruneAt = min(r.pruneAt, iv.end+pruneWindow)
	}
}

// shiftFrontLeft moves logical intervals [0, i) — addressed at the OLD
// head, i.e. the slot after the freshly decremented r.head — one
// physical slot back. The moved range spans at most two contiguous
// physical segments; each is one overlapping copy plus at most one
// element carried across the array boundary.
func (r *Resource) shiftFrontLeft(i int) {
	if i == 0 {
		return
	}
	mask := len(r.buf) - 1
	src := (r.head + 1) & mask // old head
	n1 := min(i, len(r.buf)-src)
	if src == 0 {
		// The first element wraps onto the top slot; with src == 0 the
		// whole range is one segment ([0, i) fits below len).
		r.buf[mask] = r.buf[0]
		copy(r.buf[:n1-1], r.buf[1:n1])
		return
	}
	copy(r.buf[src-1:src-1+n1], r.buf[src:src+n1])
	// Wrapped remainder [0, i-n1): its first element crosses onto the
	// top slot (just vacated by segment one), the rest shift within.
	if n2 := i - n1; n2 > 0 {
		r.buf[mask] = r.buf[0]
		copy(r.buf[:n2-1], r.buf[1:n2])
	}
}

// shiftTailRight moves logical intervals [i, n) one physical slot
// forward, moving the logically-later segment first so nothing is
// overwritten.
func (r *Resource) shiftTailRight(i int) {
	cnt := r.n - i
	if cnt == 0 {
		return
	}
	mask := len(r.buf) - 1
	a := (r.head + i) & mask // physical start of the moved range
	n1 := min(cnt, len(r.buf)-a)
	if n2 := cnt - n1; n2 > 0 {
		// Wrapped tail [0, n2) shifts right, then the top element of the
		// first segment crosses the boundary into slot 0.
		copy(r.buf[1:n2+1], r.buf[:n2])
		r.buf[0] = r.buf[mask]
		copy(r.buf[a+1:], r.buf[a:mask])
		return
	}
	if a+n1 == len(r.buf) {
		r.buf[0] = r.buf[mask]
		copy(r.buf[a+1:], r.buf[a:mask])
		return
	}
	copy(r.buf[a+1:a+1+n1], r.buf[a:a+n1])
}

// removeAt deletes the interval at logical index i, closing the gap from
// the shorter side. Removal only happens on a both-sides merge, so the
// per-element walk stays short in practice.
func (r *Resource) removeAt(i int) {
	if i < r.n-1-i {
		for j := i; j > 0; j-- {
			*r.at(j) = *r.at(j - 1)
		}
		r.head = (r.head + 1) & (len(r.buf) - 1)
	} else {
		for j := i; j < r.n-1; j++ {
			*r.at(j) = *r.at(j + 1)
		}
	}
	r.n--
}

// grow doubles and linearizes the ring storage.
func (r *Resource) grow() {
	capNew := len(r.buf) * 2
	if capNew == 0 {
		capNew = 8
	}
	buf := make([]ival, capNew)
	if r.n > 0 {
		n1 := min(r.n, len(r.buf)-r.head)
		copy(buf, r.buf[r.head:r.head+n1])
		copy(buf[n1:], r.buf[:r.n-n1])
	}
	r.buf = buf
	r.head = 0
}

// prune folds intervals far behind the current arrival into the floor.
// Dropping the front of the ring is O(1), so a long-running resource
// never re-copies its surviving intervals the way a pruned slice did.
// While t <= pruneAt interval 0 is still inside the window, so only the
// count cap can cut and the front is not read. Front merges only raise
// at(0).end, so a stale pruneAt costs an extra check, never a missed fold.
func (r *Resource) prune(t Time) {
	if t <= r.pruneAt && r.n <= maxIntervals {
		return
	}
	cut := 0
	for cut < r.n && r.at(cut).end < t-pruneWindow {
		cut++
	}
	cut = max(cut, r.n-maxIntervals)
	if cut > 0 {
		if e := r.at(cut - 1).end; e > r.floor {
			r.floor = e
		}
		r.head = (r.head + cut) & (len(r.buf) - 1)
		r.n -= cut
	}
	if r.n > 0 {
		r.pruneAt = r.at(0).end + pruneWindow
	}
}

// FreeAt reports the end of the last reservation (the time after which
// the resource is certainly idle).
func (r *Resource) FreeAt() Time {
	if r.n == 0 {
		return r.floor
	}
	return r.at(r.n - 1).end
}

// BusyTotal reports the cumulative reserved time.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// Reset clears the reservation state (used between independent runs).
func (r *Resource) Reset() { *r = Resource{} }
