package sim

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

// TestRNGMatchesXoshiro checks Uint64 against xoshiro256** written as
// in-place state updates, the form of its reference implementation.
func TestRNGMatchesXoshiro(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r := NewRNG(seed)
		s := r.s
		for i := 0; i < 10000; i++ {
			want := bits.RotateLeft64(s[1]*5, 7) * 9
			tmp := s[1] << 17
			s[2] ^= s[0]
			s[3] ^= s[1]
			s[1] ^= s[2]
			s[0] ^= s[3]
			s[2] ^= tmp
			s[3] = bits.RotateLeft64(s[3], 45)
			if got := r.Uint64(); got != want || r.s != s {
				t.Fatalf("seed %d draw %d: %#x, state %x; want %#x, state %x", seed, i, got, r.s, want, s)
			}
		}
	}
}

// TestRNGFillMatchesUint64 checks that Fill writes the next outputs of
// Uint64 and leaves the generator where those calls would.
func TestRNGFillMatchesUint64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for _, n := range []int{0, 1, 7, 4096} {
			got, want := NewRNG(seed), NewRNG(seed)
			got.Uint64()
			want.Uint64()
			buf := make([]uint64, n)
			got.Fill(buf)
			for i, v := range buf {
				if w := want.Uint64(); v != w {
					t.Fatalf("seed %d, Fill(%d)[%d] = %#x, want %#x", seed, n, i, v, w)
				}
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, after Fill(%d): next Uint64 %#x, want %#x", seed, n, g, w)
			}
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct seeds produced %d/100 identical draws", same)
	}
}

func TestRNGSplitIndependent(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children with different ids produced identical first draw")
	}
	// Splitting must not consume from the parent stream.
	p1 := NewRNG(7)
	_ = p1.Split(1)
	p2 := NewRNG(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split consumed parent entropy")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipfTable(1000, 1.0).Sampler(r)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[99] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[99]=%d", counts[0], counts[99])
	}
	// Rank-0 frequency should be roughly 1/H(1000) of all draws (~13%).
	frac := float64(counts[0]) / 100000
	if frac < 0.08 || frac > 0.22 {
		t.Fatalf("Zipf head frequency %.3f implausible for s=1", frac)
	}
}

func TestZipfPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipfTable(n=0) did not panic")
		}
	}()
	NewZipfTable(0, 1.0)
}

func TestTimeConversions(t *testing.T) {
	if FromNS(1.5) != 1500*Picosecond {
		t.Fatalf("FromNS(1.5) = %v", FromNS(1.5))
	}
	if got := (2 * Microsecond).NS(); got != 2000 {
		t.Fatalf("NS() = %v, want 2000", got)
	}
	if s := (1500 * Picosecond).String(); s != "1.50ns" {
		t.Fatalf("String = %q", s)
	}
	if s := (250 * Picosecond).String(); s != "250ps" {
		t.Fatalf("String = %q", s)
	}
}

func TestClock(t *testing.T) {
	c := NewClock(2000) // 2 GHz => 500 ps period
	if c.Period() != 500*Picosecond {
		t.Fatalf("period = %v", c.Period())
	}
	if c.Cycles(3) != 1500*Picosecond {
		t.Fatalf("Cycles(3) = %v", c.Cycles(3))
	}
	if c.ToCycles(1600*Picosecond) != 3 {
		t.Fatalf("ToCycles = %d", c.ToCycles(1600*Picosecond))
	}
}

func TestClockPanicsOnZeroFreq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	q.Push(30, 3)
	q.Push(10, 1)
	q.Push(20, 2)
	var got []int
	for q.Len() > 0 {
		got = append(got, q.Pop().ID)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestEventQueueTieBreakFIFO(t *testing.T) {
	var q EventQueue
	for i := 0; i < 10; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 10; i++ {
		if e := q.Pop(); e.ID != i {
			t.Fatalf("tie-break: got %d at position %d", e.ID, i)
		}
	}
}

func TestEventQueuePeek(t *testing.T) {
	var q EventQueue
	q.Push(7, 42)
	if e := q.Peek(); e.ID != 42 || e.When != 7 {
		t.Fatalf("Peek = %+v", e)
	}
	if q.Len() != 1 {
		t.Fatal("Peek consumed the event")
	}
}

// Property: events pop in nondecreasing time order regardless of insertion order.
func TestEventQueueProperty(t *testing.T) {
	f := func(times []uint32) bool {
		var q EventQueue
		for i, tt := range times {
			q.Push(Time(tt), i)
		}
		last := Time(-1)
		for q.Len() > 0 {
			e := q.Pop()
			if e.When < last {
				return false
			}
			last = e.When
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceContention(t *testing.T) {
	var r Resource
	s, e := r.Acquire(100, 50)
	if s != 100 || e != 150 {
		t.Fatalf("first acquire: start=%v end=%v", s, e)
	}
	// Arriving before the resource is free waits.
	s, e = r.Acquire(120, 30)
	if s != 150 || e != 180 {
		t.Fatalf("queued acquire: start=%v end=%v", s, e)
	}
	// Arriving after it's free starts immediately.
	s, e = r.Acquire(500, 10)
	if s != 500 || e != 510 {
		t.Fatalf("idle acquire: start=%v end=%v", s, e)
	}
	if r.BusyTotal() != 90 {
		t.Fatalf("BusyTotal = %v, want 90", r.BusyTotal())
	}
	r.Reset()
	if r.Live() != 0 || r.BusyTotal() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Property: reservations never overlap and never start before the
// request time, even with out-of-order arrivals (gap-filling).
func TestResourceProperty(t *testing.T) {
	f := func(reqs []struct {
		At  uint16
		Dur uint8
	}) bool {
		var r Resource
		type span struct{ s, e Time }
		var spans []span
		for _, req := range reqs {
			at := Time(req.At)
			dur := Time(req.Dur)
			s, e := r.Acquire(at, dur)
			if s < at || e != s+dur {
				return false
			}
			if dur > 0 {
				for _, sp := range spans {
					if s < sp.e && sp.s < e {
						return false // overlap
					}
				}
				spans = append(spans, span{s, e})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Gap-filling: a far-future reservation must not delay an earlier arrival
// that fits in the idle gap before it (the NoC collapse regression).
func TestResourceGapFill(t *testing.T) {
	var r Resource
	s, e := r.Acquire(1000, 50) // future reservation at [1000, 1050)
	if s != 1000 || e != 1050 {
		t.Fatalf("future reservation at %v-%v", s, e)
	}
	s, e = r.Acquire(10, 20) // earlier arrival: idle gap before 1000
	if s != 10 || e != 30 {
		t.Fatalf("early arrival got %v-%v, want 10-30", s, e)
	}
	// A request that does not fit the gap goes after the reservation.
	s, _ = r.Acquire(990, 50)
	if s != 1050 {
		t.Fatalf("non-fitting request started at %v, want 1050", s)
	}
	// An exactly fitting gap is used.
	s, e = r.Acquire(30, 960)
	if s != 30 || e != 990 {
		t.Fatalf("exact-fit got %v-%v, want 30-990", s, e)
	}
}

// The clock bounds the interval list: with strictly increasing arrivals
// and the clock at each arrival, only the newest reservation stays live,
// while a resource without a clock keeps every one.
func TestResourcePruningBoundsMemory(t *testing.T) {
	var clock Time
	var clocked, unclocked Resource
	clocked.SetClock(&clock)
	for i := 0; i < 100000; i++ {
		clock += 1000
		clocked.Acquire(clock, 1) // 1ps each: never merge
		unclocked.Acquire(clock, 1)
	}
	if n := clocked.Live(); n != 1 {
		t.Fatalf("clocked interval list holds %d, want 1", n)
	}
	if n := unclocked.Live(); n != 100000 {
		t.Fatalf("unclocked interval list holds %d, want 100000", n)
	}
	// BusyTotal survives pruning.
	if clocked.BusyTotal() != 100000 {
		t.Fatalf("BusyTotal = %v", clocked.BusyTotal())
	}
}

func TestResourceMergeAdjacent(t *testing.T) {
	var r Resource
	r.Acquire(0, 10)  // [0,10)
	r.Acquire(0, 10)  // [10,20) -- merges with previous
	r.Acquire(50, 10) // [50,60)
	r.Acquire(20, 30) // exactly fills [20,50): everything merges
	if r.Live() != 1 || r.ivals[0] != (ival{0, 60}) {
		t.Fatalf("intervals = %+v, want one [0,60) after merges", r.ivals)
	}
}

func TestZeroDurationAcquire(t *testing.T) {
	var r Resource
	r.Acquire(100, 50)
	s, e := r.Acquire(120, 0)
	if s != 120 || e != 120 {
		t.Fatalf("zero-duration acquire = %v..%v, want instant at request time", s, e)
	}
	if r.BusyTotal() != 50 {
		t.Fatal("zero-duration acquire changed busy accounting")
	}
}
