package sim

import (
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"testing"
)

// refResource is the reference oracle: a plain slice of every
// reservation ever made, with no clock, window, cap or floor. A clocked
// Resource must return the identical (start, end) for every Acquire of
// any call sequence whose arrivals respect its clock.
type refResource struct {
	ivals     []ival
	busyTotal Time
}

func (r *refResource) Acquire(t Time, dur Time) (start, end Time) {
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
	mergedPrev := i > 0 && r.ivals[i-1].end == start
	mergedNext := i < len(r.ivals) && r.ivals[i].start == end
	switch {
	case mergedPrev && mergedNext:
		r.ivals[i-1].end = r.ivals[i].end
		r.ivals = append(r.ivals[:i], r.ivals[i+1:]...)
	case mergedPrev:
		r.ivals[i-1].end = end
	case mergedNext:
		r.ivals[i].start = start
	default:
		r.ivals = append(r.ivals, ival{})
		copy(r.ivals[i+1:], r.ivals[i:])
		r.ivals[i] = ival{start, end}
	}
	r.busyTotal += dur
	return start, end
}

// freeAt is the end of the last reservation.
func (r *refResource) freeAt() Time {
	if len(r.ivals) == 0 {
		return 0
	}
	return r.ivals[len(r.ivals)-1].end
}

// checkState compares the clocked resource's intervals with the
// reference's intervals that end after the clock, both clipped to the
// clock: a live interval may have lost a merged-in prefix that ended
// at or before the clock, which no later arrival can reach.
func checkState(t *testing.T, step int, got *Resource, want *refResource) {
	t.Helper()
	now := Time(0)
	if got.clock != nil {
		now = *got.clock
	}
	from := sort.Search(len(want.ivals), func(i int) bool { return want.ivals[i].end > now })
	live := want.ivals[from:]
	// Acquire prunes before it reserves, so intervals that ended at or
	// before the clock since the last call may still be held.
	held := got.ivals
	for len(held) > 0 && held[0].end <= now {
		held = held[1:]
	}
	if len(held) != len(live) {
		t.Fatalf("step %d: %d intervals live after the clock %d, want %d", step, len(held), now, len(live))
	}
	for i := range live {
		g, w := held[i], live[i]
		if max(g.start, now) != max(w.start, now) || g.end != w.end {
			t.Fatalf("step %d: interval %d = %+v, want %+v (clock %d)", step, i, g, w, now)
		}
	}
	if got.busyTotal != want.busyTotal {
		t.Fatalf("step %d: busyTotal %v, want %v", step, got.busyTotal, want.busyTotal)
	}
}

// tailArrival draws an arrival the way the simulator's busy links see
// them, relative to the tail of the full reservation history: 40% past
// the tail, 55% 1-16 intervals back, 4.5% 17-128 back, and the rest
// stragglers that reach the front. Arrivals before the clock are raised
// to it by the caller.
func tailArrival(rng *rand.Rand, ref *refResource) Time {
	n := len(ref.ivals)
	if n == 0 {
		return Time(rng.Int64N(100))
	}
	var k int // intervals back from the tail
	switch u := rng.IntN(1000); {
	case u < 400:
		return ref.freeAt() + Time(rng.Int64N(100)) // 0 lands exactly on the tail's end
	case u < 950:
		k = 1 + rng.IntN(16)
	case u < 995:
		k = 17 + rng.IntN(112)
	default:
		return ref.ivals[0].start - Time(rng.Int64N(400)) // front straggler
	}
	k = min(k, n)
	// Land in [end of interval n-k-1, end of interval n-k]: the gap
	// before interval n-k, inside it, or exactly on either end.
	lo := Time(0)
	if n-k > 0 {
		lo = ref.ivals[n-k-1].end
	}
	return lo + Time(rng.Int64N(int64(ref.ivals[n-k].end-lo)+1))
}

// TestResourceMatchesUnprunedReference drives a clocked Resource and the
// unpruned reference through identical randomized Acquire sequences and
// demands identical results at every step and identical live state at
// every step (every 8th in tail-heavy). Each scenario proposes an
// arrival; one before the clock is a straggler raised to the clock, and
// the clock then advances, never back, to a point at or before the
// arrival (a quarter of the steps), or stays. The scenarios mix
// mostly-monotonic arrivals (the event loop's real pattern) with
// stragglers, zero and huge durations, exact-fit gaps, exact-touch
// merges and far-future jumps; tail-heavy replays the measured shape of
// real link traffic.
func TestResourceMatchesUnprunedReference(t *testing.T) {
	const span = 200 * Microsecond // scale of the far-future jumps
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
				return span / 2, span / 4
			}
			return Time(rng.Int64N(int64(span / 2))), Time(1 + rng.Int64N(50))
		}},
		{"prune-heavy", 4, 5000, 1, func(rng *rand.Rand, now *Time, _ *refResource) (Time, Time) {
			// Occasional far jumps let the clock pass the whole history.
			if rng.Int64N(100) == 0 {
				*now += span * 2
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
				return *now, Time(rng.Int64N(int64(span))) // huge
			default:
				return *now - Time(rng.Int64N(1000)), Time(rng.Int64N(64))
			}
		}},
		{"tail-heavy", 6, 32768, 8, func(rng *rand.Rand, now *Time, ref *refResource) (Time, Time) {
			// Short reservations on a dense timeline; a rare jump of
			// half the span leaves a long idle gap behind the tail.
			if rng.IntN(8000) == 0 {
				*now = ref.freeAt() + span/2
				return *now, Time(1 + rng.Int64N(100))
			}
			return tailArrival(rng, ref), Time(1 + rng.Int64N(60))
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(sc.seed, 0xdecade))
			var clock, now Time
			var got Resource
			got.SetClock(&clock)
			var want refResource
			for step := 0; step < sc.steps; step++ {
				at, dur := sc.next(rng, &now, &want)
				at = max(at, clock)
				if rng.IntN(4) == 0 {
					clock += Time(rng.Int64N(int64(at-clock) + 1))
				}
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

// FuzzResourceAcquire drives a clocked Resource and the unpruned
// reference with the same decoded Acquire sequence, comparing every
// result and the final state. Each 6-byte step is (Δt, reach-back, dur,
// advance): Δt advances the arrival timeline; a reach-back k > 0
// instead aims the arrival Δt before the end of the interval k back
// from the tail of the full history (the front when k exceeds it). An
// arrival before the clock is raised to it; then the clock moves
// advance/255 of the way to the arrival. Δt and dur are log-scaled so
// short inputs reach exact touches and far-future jumps.
func FuzzResourceAcquire(f *testing.F) {
	step := func(dt uint16, back byte, dur uint16, adv byte) []byte {
		return []byte{byte(dt), byte(dt >> 8), back, byte(dur), byte(dur >> 8), adv}
	}
	var seed []byte
	for i := 0; i < 64; i++ {
		seed = append(seed, step(uint16(100+i%7), byte(i%5), uint16(60+i%3), byte(i*37))...)
	}
	f.Add(seed)
	f.Add(append(step(0, 0, 10, 0), step(0, 1, 10, 255)...))           // exact touch, then on the tail's end
	f.Add(append(step(10, 0, 5, 0), step(0xf000|100, 200, 5, 128)...)) // a straggler raised to the clock
	f.Fuzz(func(t *testing.T, data []byte) {
		scaled := func(v uint16) Time { return Time(v&0xfff) << (v >> 12) }
		var clock, now Time
		var got Resource
		got.SetClock(&clock)
		var want refResource
		i := 0
		for ; len(data) >= 6; data, i = data[6:], i+1 {
			dt := scaled(binary.LittleEndian.Uint16(data))
			back := int(data[2])
			dur := scaled(binary.LittleEndian.Uint16(data[3:]))
			now += dt
			at := now
			if n := len(want.ivals); back > 0 && n > 0 {
				at = want.ivals[max(n-back, 0)].end - dt
			}
			at = max(at, clock)
			clock += (at - clock) * Time(data[5]) / 255
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
