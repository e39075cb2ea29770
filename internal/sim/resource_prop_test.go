package sim

import (
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"testing"
)

// refResource is the pre-ring slice implementation of Resource, kept
// verbatim as the reference oracle: the ring buffer must produce the
// identical (start, end) for every Acquire in any call sequence, the
// same FreeAt, BusyTotal, floor, and the same logical interval list.
type refResource struct {
	floor     Time
	ivals     []ival
	busyTotal Time
}

func (r *refResource) Acquire(t Time, dur Time) (start, end Time) {
	if t < r.floor {
		t = r.floor
	}
	if dur <= 0 {
		return t, t
	}
	i := sort.Search(len(r.ivals), func(i int) bool { return r.ivals[i].end > t })
	cur := t
	for ; i < len(r.ivals); i++ {
		if cur+dur <= r.ivals[i].start {
			break
		}
		if r.ivals[i].end > cur {
			cur = r.ivals[i].end
		}
	}
	start, end = cur, cur+dur
	r.insert(i, ival{start, end})
	r.busyTotal += dur
	r.prune(t)
	return start, end
}

func (r *refResource) insert(i int, iv ival) {
	mergedPrev := i > 0 && r.ivals[i-1].end == iv.start
	mergedNext := i < len(r.ivals) && r.ivals[i].start == iv.end
	switch {
	case mergedPrev && mergedNext:
		r.ivals[i-1].end = r.ivals[i].end
		r.ivals = append(r.ivals[:i], r.ivals[i+1:]...)
	case mergedPrev:
		r.ivals[i-1].end = iv.end
	case mergedNext:
		r.ivals[i].start = iv.start
	default:
		r.ivals = append(r.ivals, ival{})
		copy(r.ivals[i+1:], r.ivals[i:])
		r.ivals[i] = iv
	}
}

func (r *refResource) prune(t Time) {
	cut := 0
	for cut < len(r.ivals) && r.ivals[cut].end < t-pruneWindow {
		cut++
	}
	for len(r.ivals)-cut > maxIntervals {
		cut++
	}
	if cut > 0 {
		if e := r.ivals[cut-1].end; e > r.floor {
			r.floor = e
		}
		r.ivals = r.ivals[cut:]
	}
}

func (r *refResource) FreeAt() Time {
	if len(r.ivals) == 0 {
		return r.floor
	}
	return r.ivals[len(r.ivals)-1].end
}

// checkState compares the ring's full logical state against the
// reference after each step.
func checkState(t *testing.T, step int, got *Resource, want *refResource) {
	t.Helper()
	if got.n != len(want.ivals) {
		t.Fatalf("step %d: interval count %d, want %d", step, got.n, len(want.ivals))
	}
	for i := range want.ivals {
		if *got.at(i) != want.ivals[i] {
			t.Fatalf("step %d: interval %d = %+v, want %+v", step, i, *got.at(i), want.ivals[i])
		}
	}
	if got.floor != want.floor {
		t.Fatalf("step %d: floor %v, want %v", step, got.floor, want.floor)
	}
	if got.busyTotal != want.busyTotal {
		t.Fatalf("step %d: busyTotal %v, want %v", step, got.busyTotal, want.busyTotal)
	}
	if got.FreeAt() != want.FreeAt() {
		t.Fatalf("step %d: FreeAt %v, want %v", step, got.FreeAt(), want.FreeAt())
	}
	if got.n > 0 && got.pruneAt > got.at(0).end+pruneWindow {
		t.Fatalf("step %d: pruneAt %d ps above interval 0's window edge %d ps",
			step, got.pruneAt, got.at(0).end+pruneWindow)
	}
}

// checkSearch compares the ring's tail gallop against a bisection of the
// reference list for an arrival at t.
func checkSearch(t *testing.T, step int, got *Resource, want *refResource, at Time) {
	t.Helper()
	w := sort.Search(len(want.ivals), func(i int) bool { return want.ivals[i].end > at })
	if g := got.firstEndAfter(at); g != w {
		t.Fatalf("step %d: firstEndAfter(%v) = %d, want %d", step, at, g, w)
	}
}

// tailArrival draws an arrival the way the simulator's busy links see
// them. Over the eight ndpbench simulation cells, 30-67% of arrivals land
// past the last interval, the first interval ending after an arrival is
// within 16 of the tail on 95-99% of calls, and it is never more than
// 125 back. The draws are 40% past the tail, 55% 1-16 back and 4.5%
// 17-128 back; the rest are stragglers that reach the front (inserting at
// index 0) or fall below the floor.
func tailArrival(rng *rand.Rand, ref *refResource) Time {
	n := len(ref.ivals)
	if n == 0 {
		return ref.floor + Time(rng.Int64N(100))
	}
	var k int // intervals back from the tail
	switch u := rng.IntN(1000); {
	case u < 400:
		return ref.FreeAt() + Time(rng.Int64N(100)) // 0 lands exactly on the tail's end
	case u < 950:
		k = 1 + rng.IntN(16)
	case u < 995:
		k = 17 + rng.IntN(112)
	case u < 998:
		return ref.ivals[0].start - Time(rng.Int64N(400)) // front straggler
	default:
		return ref.floor - Time(1+rng.Int64N(1000)) // clamped to the floor
	}
	k = min(k, n)
	// Land in [end of interval n-k-1, end of interval n-k]: the gap
	// before interval n-k, inside it, or exactly on either end.
	lo := ref.floor
	if n-k > 0 {
		lo = ref.ivals[n-k-1].end
	}
	return lo + Time(rng.Int64N(int64(ref.ivals[n-k].end-lo)+1))
}

// TestResourceRingMatchesReference drives the ring buffer and the slice
// reference through identical randomized Acquire sequences and demands
// bit-identical searches and results at every step, and identical
// interval state at every step (every 8th in tail-heavy). The workload
// mixes mostly-monotonic arrivals (the event loop's real pattern) with
// out-of-order stragglers, zero/huge durations, exact-fit gaps, and
// far-future jumps that trigger pruning; tail-heavy replays the measured
// shape of real link traffic past the count cap and the prune window.
func TestResourceRingMatchesReference(t *testing.T) {
	type scenario struct {
		name  string
		seed  uint64
		steps int
		every int // steps between full-state checks
		next  func(rng *rand.Rand, now *Time, ref *refResource) (t, dur Time)
	}
	scenarios := []scenario{
		{"mostly-monotonic", 1, 20000, 1, func(rng *rand.Rand, now *Time, _ *refResource) (Time, Time) {
			*now += Time(rng.Int64N(2000))
			t := *now - Time(rng.Int64N(500)) // bounded skew backwards
			return t, Time(rng.Int64N(1500))
		}},
		{"dense-merging", 2, 20000, 1, func(rng *rand.Rand, now *Time, _ *refResource) (Time, Time) {
			// Durations and arrivals on a coarse grid so exact-touch
			// merges (both-sides included) happen constantly.
			*now += Time(rng.Int64N(4)) * 100
			return *now, Time(1+rng.Int64N(4)) * 100
		}},
		{"front-loaded", 3, 20000, 1, func(rng *rand.Rand, now *Time, _ *refResource) (Time, Time) {
			// A far-future reservation early on, then arrivals that fill
			// gaps near the front of a long list.
			if *now == 0 {
				*now = 1
				return pruneWindow / 2, pruneWindow / 4
			}
			return Time(rng.Int64N(int64(pruneWindow / 2))), Time(1 + rng.Int64N(50))
		}},
		{"prune-heavy", 4, 5000, 1, func(rng *rand.Rand, now *Time, _ *refResource) (Time, Time) {
			// Occasional jumps past the prune window fold the front.
			if rng.Int64N(100) == 0 {
				*now += pruneWindow * 2
			}
			*now += Time(rng.Int64N(300))
			return *now, Time(rng.Int64N(200))
		}},
		{"adversarial", 5, 20000, 1, func(rng *rand.Rand, now *Time, _ *refResource) (Time, Time) {
			*now += Time(rng.Int64N(50))
			switch rng.Int64N(5) {
			case 0:
				return *now, 0 // zero duration: no reservation
			case 1:
				return *now, Time(rng.Int64N(int64(pruneWindow))) // huge
			default:
				return *now - Time(rng.Int64N(1000)), Time(rng.Int64N(64))
			}
		}},
		{"tail-heavy", 6, 4 * maxIntervals, 8, func(rng *rand.Rand, now *Time, ref *refResource) (Time, Time) {
			// Short reservations on a dense timeline keep the list at
			// the count cap; a rare jump of half the window ages the
			// front out so window folds happen too. The full-state
			// check walks ~8k intervals, so it runs every 8th step.
			if rng.IntN(8000) == 0 {
				*now = ref.FreeAt() + pruneWindow/2
				return *now, Time(1 + rng.Int64N(100))
			}
			return tailArrival(rng, ref), Time(1 + rng.Int64N(60))
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(sc.seed, 0xdecade))
			var got Resource
			var want refResource
			var now Time
			for step := 0; step < sc.steps; step++ {
				at, dur := sc.next(rng, &now, &want)
				checkSearch(t, step, &got, &want, at)
				gs, ge := got.Acquire(at, dur)
				ws, we := want.Acquire(at, dur)
				if gs != ws || ge != we {
					t.Fatalf("step %d: Acquire(%v, %v) = (%v, %v), want (%v, %v)",
						step, at, dur, gs, ge, ws, we)
				}
				if step%sc.every == 0 || step == sc.steps-1 {
					checkState(t, step, &got, &want)
				}
			}
		})
	}
}

// TestResourceOverflowCapMatchesReference pushes both implementations
// past maxIntervals so the count-cap pruning path is compared too.
func TestResourceOverflowCapMatchesReference(t *testing.T) {
	var got Resource
	var want refResource
	for i := 0; i < maxIntervals+500; i++ {
		at := Time(3 * i) // gap-separated: never merge
		gs, ge := got.Acquire(at, 1)
		ws, we := want.Acquire(at, 1)
		if gs != ws || ge != we {
			t.Fatalf("i=%d: (%v,%v) vs (%v,%v)", i, gs, ge, ws, we)
		}
	}
	checkState(t, maxIntervals+500, &got, &want)
}

// FuzzResourceAcquire drives the ring and the slice reference with the
// same decoded Acquire sequence, comparing every search and result and
// the final state. Each 5-byte step is (Δt, reach-back, dur): Δt advances
// the arrival clock; a reach-back k > 0 instead aims the arrival Δt before
// the end of the interval k back from the tail (the front when k exceeds
// the list, the floor when Δt reaches past it). Δt and dur are
// log-scaled so short inputs reach exact touches and prune-window jumps.
func FuzzResourceAcquire(f *testing.F) {
	step := func(dt uint16, back byte, dur uint16) []byte {
		return []byte{byte(dt), byte(dt >> 8), back, byte(dur), byte(dur >> 8)}
	}
	var seed []byte
	for i := 0; i < 64; i++ {
		seed = append(seed, step(uint16(100+i%7), byte(i%5), uint16(60+i%3))...)
	}
	f.Add(seed)
	f.Add(append(step(0, 0, 10), step(0, 1, 10)...))           // exact touch, then on the tail's end
	f.Add(append(step(10, 0, 5), step(0xf000|100, 200, 5)...)) // a straggler inserted before the front
	f.Fuzz(func(t *testing.T, data []byte) {
		scaled := func(v uint16) Time { return Time(v&0xfff) << (v >> 12) }
		var got Resource
		var want refResource
		var now Time
		i := 0
		for ; len(data) >= 5; data, i = data[5:], i+1 {
			dt := scaled(binary.LittleEndian.Uint16(data))
			back := int(data[2])
			dur := scaled(binary.LittleEndian.Uint16(data[3:]))
			now += dt
			at := now
			if n := len(want.ivals); back > 0 && n > 0 {
				at = want.ivals[max(n-back, 0)].end - dt
			}
			checkSearch(t, i, &got, &want, at)
			gs, ge := got.Acquire(at, dur)
			ws, we := want.Acquire(at, dur)
			if gs != ws || ge != we {
				t.Fatalf("step %d: Acquire(%v, %v) = (%v, %v), want (%v, %v)",
					i, at, dur, gs, ge, ws, we)
			}
		}
		checkState(t, i, &got, &want)
	})
}
