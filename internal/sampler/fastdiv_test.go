package sampler

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestFastDivExact checks the magic-multiplier remainder against the
// hardware % across divisor structure classes (powers of two, odd,
// near-power boundaries, huge) and adversarial dividends.
func TestFastDivExact(t *testing.T) {
	divisors := []uint64{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 31, 32, 33, 63, 64, 65,
		100, 127, 255, 256, 257, 1000, 4095, 4096, 4097,
		1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<42 + 12345,
		1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64,
	}
	edges := []uint64{0, 1, 2, 3, math.MaxUint64, math.MaxUint64 - 1, 1 << 32, 1<<32 - 1, 1 << 63}
	rng := rand.New(rand.NewPCG(7, 11))
	for _, d := range divisors {
		f := newFastDiv(d)
		check := func(x uint64) {
			t.Helper()
			if got, want := f.mod(x), x%d; got != want {
				t.Fatalf("fastDiv(%d).mod(%d) = %d, want %d", d, x, got, want)
			}
		}
		for _, x := range edges {
			check(x)
		}
		for _, e := range []uint64{d - 1, d, d + 1, 2*d - 1, 2 * d, 2*d + 1} {
			check(e) // wrap-around values are fine: they are still dividends
		}
		for i := 0; i < 20000; i++ {
			check(rng.Uint64())
		}
	}
}

// TestFastDivRandomDivisors sweeps random divisors so the magic
// construction itself (normal vs add-corrected path) is exercised
// broadly, not just on hand-picked values.
func TestFastDivRandomDivisors(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for i := 0; i < 2000; i++ {
		d := rng.Uint64()
		if d == 0 {
			d = 1
		}
		f := newFastDiv(d)
		for j := 0; j < 50; j++ {
			x := rng.Uint64()
			if got, want := f.mod(x), x%d; got != want {
				t.Fatalf("fastDiv(%d).mod(%d) = %d, want %d", d, x, got, want)
			}
		}
	}
}

// TestSlotMatchesModulo checks the one-multiply sampled-set test against
// its definition, set < stride*k && set%stride == 0 with slot set/stride,
// at every capacity point of every geometry DefaultConfig yields for unit
// sizes 1 MB..256 MB and the item sizes the workloads use.
func TestSlotMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 13))
	for unit := int64(1 << 20); unit <= 256<<20; unit <<= 1 {
		for _, item := range []int{8, 16, 64, 256} {
			cfg := DefaultConfig(unit)
			s := New(cfg, item)
			k := uint64(cfg.SampleSets)
			for pi := range s.points {
				p := &s.points[pi]
				n := p.numSets
				stride := n / k
				if stride == 0 {
					stride = 1
				}
				check := func(set uint64) {
					t.Helper()
					set %= n
					// set < n, so set is its own hash.
					j, ok := p.slot(set)
					wantOK := set < stride*k && set%stride == 0
					if ok != wantOK || (ok && j != set/stride) {
						t.Fatalf("unit %d item %d point %d (sets %d, stride %d): slot(%d) = (%d, %v), want (%d, %v)",
							unit, item, pi, n, stride, set, j, ok, set/stride, wantOK)
					}
				}
				for q := uint64(0); q <= k+1; q++ {
					for _, d := range []uint64{0, 1, stride - 1, stride + 1} {
						check(q*stride + d)
					}
				}
				for _, e := range []uint64{n - 1, n - 2, stride*k - 1, stride * k} {
					check(e)
				}
				for i := 0; i < 2000; i++ {
					check(rng.Uint64())
				}
			}
		}
	}
}

// FuzzSampledSet checks exactDiv's combined divisibility-and-range test
// against the % reference for arbitrary sets, strides and slot counts.
func FuzzSampledSet(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(32))
	f.Add(uint64(96), uint64(3), uint64(32))
	f.Add(uint64(1<<20), uint64(1<<12), uint64(32))
	f.Add(uint64(math.MaxUint64), uint64(6), uint64(7))
	f.Fuzz(func(t *testing.T, set, stride, k uint64) {
		if stride == 0 || k == 0 || k > math.MaxUint64/stride {
			return // the sampler guarantees stride >= 1, k >= 1, stride*k <= numSets
		}
		j := newExactDiv(stride).quo(set)
		ok := j < k
		wantOK := set < stride*k && set%stride == 0
		if ok != wantOK || (ok && j != set/stride) {
			t.Fatalf("set %d stride %d k %d: got (%d, %v), want (%d, %v)",
				set, stride, k, j, ok, set/stride, wantOK)
		}
	})
}

func BenchmarkObserve(b *testing.B) {
	cfg := DefaultConfig(256 << 20)
	s := New(cfg, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint64(i) * 0x9e37)
	}
}

func BenchmarkObservePair(b *testing.B) {
	cfg := DefaultConfig(256 << 20)
	s1, s2 := New(cfg, 64), New(cfg, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ObservePair(s1, s2, uint64(i)*0x9e37)
	}
}
