package sampler

import "math/bits"

// fastDiv computes an exact remainder by a fixed divisor using a
// precomputed magic multiplier (Granlund & Montgomery's invariant
// integer division, the branchfull u64 scheme libdivide popularized).
// The sampler's Observe loop reduces one hash modulo 64 different set
// counts per observation; hardware 64-bit division is the dominant cost
// there, and the multiply-shift form is several times cheaper with
// bit-exact results (guarded by TestFastDivExact).
type fastDiv struct {
	d     uint64
	magic uint64
	shift uint8
	add   bool // quotient needs the (x-q)>>1+q correction step
	pow2  bool // divisor is a power of two: plain mask
}

// newFastDiv prepares a divider for d (d >= 1).
func newFastDiv(d uint64) fastDiv {
	f := fastDiv{d: d}
	if d&(d-1) == 0 {
		f.pow2 = true
		return f
	}
	fl2 := uint8(63 - bits.LeadingZeros64(d))
	// proposedM = floor(2^(64+fl2) / d); 2^fl2 < d, so Div64 is in range.
	proposedM, rem := bits.Div64(uint64(1)<<fl2, 0, d)
	e := d - rem
	if e < uint64(1)<<fl2 {
		f.shift = fl2
	} else {
		// The magic needs 65 bits; double it and round, and compensate
		// with the add-and-halve step at division time.
		proposedM += proposedM
		twiceRem := rem + rem
		if twiceRem >= d || twiceRem < rem {
			proposedM++
		}
		f.shift = fl2
		f.add = true
	}
	f.magic = proposedM + 1
	return f
}

// mod returns x % d.
func (f fastDiv) mod(x uint64) uint64 {
	if f.pow2 {
		return x & (f.d - 1)
	}
	q, _ := bits.Mul64(f.magic, x)
	if f.add {
		q = ((x-q)>>1 + q) >> f.shift
	} else {
		q >>= f.shift
	}
	return x - q*f.d
}

// exactDiv divides by a fixed d = d0<<s (d0 odd) in one multiply and one
// rotate, for dividends that d divides exactly (Hacker's Delight §10-17).
// d0 has a multiplicative inverse inv modulo 2^64, so for x = q*d the
// product x*inv is q<<s and rotating it right by s yields q. For any
// other x the result exceeds (2^64-1)/d: the map x -> rotr(x*inv, s) is
// a bijection on uint64, and the multiples of d already occupy every
// value up to (2^64-1)/d. One comparison against a bound below that
// therefore tests divisibility and range at once and yields the quotient.
type exactDiv struct {
	inv   uint64
	shift int
}

// newExactDiv prepares an exact divider for d (d >= 1).
func newExactDiv(d uint64) exactDiv {
	s := bits.TrailingZeros64(d)
	d0 := d >> s
	// Newton's iteration for the inverse of odd d0 modulo 2^64: d0 is
	// its own inverse modulo 8 (3 bits), and each step doubles the
	// correct low bits: 6, 12, 24, 48, 96.
	inv := d0
	for range 5 {
		inv *= 2 - d0*inv
	}
	return exactDiv{inv: inv, shift: s}
}

// quo returns x/d when d divides x, and a value greater than
// (2^64-1)/d otherwise.
func (e exactDiv) quo(x uint64) uint64 {
	return bits.RotateLeft64(x*e.inv, -e.shift)
}
