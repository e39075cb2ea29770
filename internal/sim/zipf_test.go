package sim

import (
	"math"
	"testing"
)

// zipfBisect is the sampler without a guide table: a bisection over the
// whole cumulative table for the first cum[i] >= k/2^53.
func zipfBisect(cum []float64, k uint64) int {
	u := float64(k) / (1 << 53)
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// zipfEdgeDraws returns the draws where a sample can change: the two
// ends of the draw range, the first and last draw of every guide cell,
// and the draws next to each cumulative weight.
func zipfEdgeDraws(t *ZipfTable) []uint64 {
	const top = 1<<53 - 1
	ks := []uint64{0, 1, top - 1, top}
	for j := range t.guide {
		lo := uint64(j) << t.shift
		ks = append(ks, lo, lo+1, lo+1<<t.shift-1)
	}
	for _, c := range t.cum {
		k := uint64(math.Ceil(c * (1 << 53)))
		for _, d := range []uint64{k - 1, k, k + 1} {
			if d <= top {
				ks = append(ks, d)
			}
		}
	}
	return ks
}

// TestZipfGuideMatchesBisection: with the guide table, every draw gets
// the sample the whole-table bisection gives, at the draws where a
// sample can change and along a sampler's own sequence.
func TestZipfGuideMatchesBisection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 2048, 16384, 100000} {
		for _, s := range []float64{0.5, 0.9, 1.3} {
			tbl := NewZipfTable(n, s)
			if max := n / 8; len(tbl.guide) > max {
				t.Fatalf("n=%d: guide table of %d entries, want at most %d", n, len(tbl.guide), max)
			}
			for _, k := range zipfEdgeDraws(tbl) {
				if got, want := tbl.sample(k), zipfBisect(tbl.cum, k); got != want {
					t.Fatalf("n=%d s=%g draw %#x: sample %d, bisection %d", n, s, k, got, want)
				}
			}
			z, ref := tbl.Sampler(NewRNG(uint64(n))), NewRNG(uint64(n))
			for i := 0; i < 20000; i++ {
				if got, want := z.Next(), zipfBisect(tbl.cum, ref.Uint64()>>11); got != want {
					t.Fatalf("n=%d s=%g draw %d: Next %d, bisection %d", n, s, i, got, want)
				}
			}
		}
	}
}

// FuzzZipfGuide compares the guide-table sample with the whole-table
// bisection for fuzzed table sizes, exponents and draws, and at every
// edge draw of the fuzzed table.
func FuzzZipfGuide(f *testing.F) {
	f.Add(uint16(16384), 0.9, uint64(0))
	f.Add(uint16(17), 1.3, uint64(1<<52))
	f.Add(uint16(8), 0.5, uint64(1<<53-1))
	f.Add(uint16(1), 2.0, uint64(12345))
	f.Fuzz(func(t *testing.T, n uint16, s float64, k uint64) {
		if n == 0 || !(s >= -8 && s <= 8) {
			t.Skip()
		}
		tbl := NewZipfTable(int(n), s)
		for _, d := range append(zipfEdgeDraws(tbl), k>>11) {
			if got, want := tbl.sample(d), zipfBisect(tbl.cum, d); got != want {
				t.Fatalf("n=%d s=%g draw %#x: sample %d, bisection %d", n, s, d, got, want)
			}
		}
	})
}
