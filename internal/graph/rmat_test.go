package graph

import (
	"slices"
	"testing"

	"ndpext/internal/sim"
)

// rmatReference is RMAT as first written: one Float64 draw per bit and a
// four-way choice of quadrant. RMAT must build exactly this graph.
func rmatReference(scale, edgeFactor int, seed uint64) *CSR {
	rng := sim.NewRNG(seed)
	n := 1 << scale
	m := n * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		var s, d uint32
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				d |= 1 << bit
			case r < a+b+c:
				s |= 1 << bit
			default:
				s |= 1 << bit
				d |= 1 << bit
			}
		}
		src[i], dst[i] = s, d
	}
	return fromPairs(n, src, dst)
}

func TestRMATMatchesReference(t *testing.T) {
	for _, th := range []struct {
		k uint64
		p float64
	}{{rmatA, 0.57}, {rmatAB, 0.57 + 0.19}, {rmatABC, 0.57 + 0.19 + 0.19}} {
		below, at := float64(th.k-1)/(1<<53), float64(th.k)/(1<<53)
		if !(below < th.p) || at < th.p {
			t.Fatalf("threshold %d for p=%v: (k-1)/2^53 = %v, k/2^53 = %v", th.k, th.p, below, at)
		}
	}
	for scale := 1; scale <= 15; scale++ {
		seeds := 24
		switch {
		case scale > 12:
			seeds = 1
		case scale > 10:
			seeds = 3
		}
		for _, ef := range []int{8, 10, 12} {
			for i := 0; i < seeds; i++ {
				seed := uint64(i)*1000003 + uint64(scale)
				got, want := RMAT(scale, ef, seed), rmatReference(scale, ef, seed)
				if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Edges, want.Edges) {
					t.Fatalf("RMAT(%d, %d, %d) differs from the Float64-per-bit reference", scale, ef, seed)
				}
			}
		}
	}
}

func TestCheckRMATBounds(t *testing.T) {
	if err := CheckRMAT(MaxRMATScale, 12); err != nil {
		t.Fatalf("scale %d rejected: %v", MaxRMATScale, err)
	}
	for _, c := range [][2]int{{MaxRMATScale + 1, 12}, {0, 12}, {8, 0}} {
		if CheckRMAT(c[0], c[1]) == nil {
			t.Errorf("CheckRMAT(%d, %d) accepted", c[0], c[1])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RMAT built a graph CheckRMAT rejects")
		}
	}()
	RMAT(MaxRMATScale+1, 12, 1)
}
