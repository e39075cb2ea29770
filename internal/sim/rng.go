// Package sim provides the discrete-event simulation kernel used by the
// NDPExt reproduction: a deterministic pseudo-random source, a time type,
// an event heap, and busy-until resource reservation.
//
// Everything in the simulator that needs randomness draws from RNG seeded
// explicitly, so a given configuration always produces identical results.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 for seeding, xoshiro256** for the stream). It is not
// safe for concurrent use; give each concurrent component its own RNG
// via Split.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next SplitMix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator from r, keyed by id. The parent
// stream is unaffected, so components created in a fixed order receive
// stable sub-streams even if their own consumption patterns change.
func (r *RNG) Split(id uint64) *RNG {
	x := r.s[0] ^ bits.RotateLeft64(r.s[2], 17) ^ (id * 0x9e3779b97f4a7c15)
	return NewRNG(splitmix64(&x))
}

// Uint64 returns the next 64 random bits. It is written with locals and
// one parallel store so that it stays within the compiler's inlining
// budget.
func (r *RNG) Uint64() uint64 {
	s0, s1 := r.s[0], r.s[1]
	s2, s3 := r.s[2]^s0, r.s[3]^s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Fill writes the next len(dst) outputs of Uint64 into dst, in order.
// The state stays in locals across the loop instead of being loaded and
// stored once per output.
func (r *RNG) Fill(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n called with n == 0")
	}
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= uint64(-n)%n {
			return hi
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// ZipfTable is the cumulative weight table of a Zipf distribution over
// [0, n): probability proportional to 1/(i+1)^s. It is read-only once
// built, so samplers over any number of RNGs can share one.
//
// A draw is a 53-bit integer k, the uniform u = k/2^53, and its sample
// is the first i with cum[i] >= u. A guide table of G = 2^g cells, G at
// most n/8, narrows the search: the draw's top g bits name its cell
// [j/G, (j+1)/G), whose bounds are exact in float64, and guide[j] is
// the sample of the cell's upper bound. The draw's sample lies between
// the samples of its cell's bounds, so a bisection inside that range
// returns exactly what one over the whole table returns.
type ZipfTable struct {
	cum   []float64 // cumulative, normalized to cum[n-1] == 1
	guide []int32   // guide[j]: the sample of u = (j+1)/len(guide); nil for n < 8
	shift uint      // a draw's cell is k >> shift
}

// NewZipfTable builds the table over [0, n) with exponent s > 0.
// It panics if n <= 0.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("sim: NewZipfTable called with n <= 0")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1.0 / pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	t := &ZipfTable{cum: cum}
	if n >= 8 {
		g := bits.Len(uint(n/8)) - 1
		t.guide = make([]int32, 1<<g)
		t.shift = uint(53 - g)
		i := 0
		for j := range t.guide {
			bound := float64(j+1) / float64(len(t.guide))
			for i < n-1 && cum[i] < bound {
				i++
			}
			t.guide[j] = int32(i)
		}
	}
	return t
}

// sample returns the first i with cum[i] >= k/2^53 for a 53-bit draw k,
// or n-1 when there is none.
func (t *ZipfTable) sample(k uint64) int {
	u := float64(k) / (1 << 53)
	lo, hi := 0, len(t.cum)-1
	if t.guide != nil {
		j := k >> t.shift
		hi = int(t.guide[j])
		if j > 0 {
			lo = int(t.guide[j-1])
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Sampler returns a sampler that draws from t with rng.
func (t *ZipfTable) Sampler(rng *RNG) *Zipf { return &Zipf{rng: rng, t: *t} }

// Zipf samples integers from a ZipfTable's distribution.
type Zipf struct {
	rng *RNG
	t   ZipfTable // the table's slices, shared
}

// Next returns the next Zipf-distributed sample. Its draw is the one
// rng.Float64 would make.
func (z *Zipf) Next() int { return z.t.sample(z.rng.Uint64() >> 11) }

// pow is math.Pow; aliased so the sampler code reads naturally.
func pow(base, exp float64) float64 { return math.Pow(base, exp) }
