package graph

import (
	"slices"
	"testing"

	"ndpext/internal/sim"
)

// fromPairsReference is fromPairs as first written: place each edge in
// its source's row in input order, then comparison-sort every row.
func fromPairsReference(n int, src, dst []uint32) *CSR {
	offsets := make([]uint32, n+1)
	for _, s := range src {
		offsets[s+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	edges := make([]uint32, len(src))
	cursor := make([]uint32, n)
	for i, s := range src {
		edges[offsets[s]+cursor[s]] = dst[i]
		cursor[s]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(edges[offsets[v]:offsets[v+1]])
	}
	return &CSR{Offsets: offsets, Edges: edges}
}

// FuzzFromPairs checks the counting-sort CSR build against
// fromPairsReference. Each pair of input bytes is one edge, its
// endpoints taken modulo n.
func FuzzFromPairs(f *testing.F) {
	f.Add(uint16(1), []byte{0, 0, 0, 0})                   // one vertex, self-loops
	f.Add(uint16(5), []byte{})                             // no edges
	f.Add(uint16(4), []byte{1, 2, 1, 2, 3, 3, 2, 1, 1, 2}) // duplicates and self-loops
	f.Add(uint16(9), []byte{8, 0, 8, 3, 0, 8, 8, 0})       // zero-degree vertices
	f.Fuzz(func(t *testing.T, n uint16, pairs []byte) {
		if n == 0 {
			return
		}
		var src, dst []uint32
		for i := 0; i+1 < len(pairs); i += 2 {
			src = append(src, uint32(pairs[i])%uint32(n))
			dst = append(dst, uint32(pairs[i+1])%uint32(n))
		}
		got, want := fromPairs(int(n), src, dst), fromPairsReference(int(n), src, dst)
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Edges, want.Edges) {
			t.Fatalf("n=%d, src %v, dst %v: got %v %v, want %v %v",
				n, src, dst, got.Offsets, got.Edges, want.Offsets, want.Edges)
		}
	})
}

// rmatReference is RMAT as first written: one Float64 draw per bit, a
// four-way choice of quadrant and the comparison-sort CSR build. RMAT
// must build exactly this graph.
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
	return fromPairsReference(n, src, dst)
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
	// One Scratch builds every graph, so its buffers are reused across
	// sizes that shrink as well as grow.
	var s Scratch
	for scale := 1; scale <= 15; scale++ {
		seeds := 24
		switch {
		case scale > 12:
			seeds = 1
		case scale > 10:
			seeds = 3
		}
		for _, ef := range []int{12, 8, 10} {
			for i := 0; i < seeds; i++ {
				seed := uint64(i)*1000003 + uint64(scale)
				got, want := s.RMAT(scale, ef, seed), rmatReference(scale, ef, seed)
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
