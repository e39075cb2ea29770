// Package graph provides the synthetic graphs backing the GAP-style
// workloads (bfs, pr, cc, bc, tc) and the gnn workload: a compact CSR
// representation plus deterministic uniform and RMAT (power-law)
// generators. The paper evaluates on real GAP inputs; synthetic graphs
// with matching structure (heavy-tailed degrees for RMAT) exercise the
// same access patterns.
package graph

import (
	"fmt"
	"math"
	"slices"

	"ndpext/internal/sim"
)

// CSR is a directed graph in compressed sparse row form.
type CSR struct {
	Offsets []uint32 // len = NumVertices+1
	Edges   []uint32 // len = NumEdges
}

// NumVertices returns the vertex count.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns the edge count.
func (g *CSR) NumEdges() int { return len(g.Edges) }

// Degree returns vertex v's out-degree.
func (g *CSR) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency slice of v (shared storage; do not
// modify).
func (g *CSR) Neighbors(v int) []uint32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate checks structural invariants.
func (g *CSR) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graph: empty offsets")
	}
	if g.Offsets[0] != 0 || int(g.Offsets[len(g.Offsets)-1]) != len(g.Edges) {
		return fmt.Errorf("graph: offset endpoints wrong")
	}
	n := uint32(g.NumVertices())
	for i := 1; i < len(g.Offsets); i++ {
		if g.Offsets[i] < g.Offsets[i-1] {
			return fmt.Errorf("graph: offsets not monotonic at %d", i)
		}
	}
	for i, e := range g.Edges {
		if e >= n {
			return fmt.Errorf("graph: edge %d targets %d >= %d vertices", i, e, n)
		}
	}
	return nil
}

// fromPairs builds a CSR from (src, dst) pairs.
func fromPairs(n int, src, dst []uint32) *CSR {
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
	g := &CSR{Offsets: offsets, Edges: edges}
	// Sort each adjacency list (GAP-style) for locality and for the
	// intersection-based triangle counting.
	for v := 0; v < n; v++ {
		adj := g.Edges[offsets[v]:offsets[v+1]]
		slices.Sort(adj)
	}
	return g
}

// Uniform generates a graph with n vertices and about n*degree edges with
// uniformly random endpoints.
func Uniform(n, degree int, seed uint64) *CSR {
	if n <= 0 || degree < 0 {
		panic(fmt.Sprintf("graph: Uniform(%d, %d)", n, degree))
	}
	rng := sim.NewRNG(seed)
	m := n * degree
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		src[i] = uint32(rng.Intn(n))
		dst[i] = uint32(rng.Intn(n))
	}
	return fromPairs(n, src, dst)
}

// MaxRMATScale is the largest scale RMAT builds: 2^28 vertices.
const MaxRMATScale = 28

// CheckRMAT reports whether RMAT can build a graph of the given scale
// and edge factor.
func CheckRMAT(scale, edgeFactor int) error {
	if scale <= 0 || scale > MaxRMATScale || edgeFactor <= 0 {
		return fmt.Errorf("graph: RMAT(%d, %d): want a scale of 1 to %d and a positive edge factor",
			scale, edgeFactor, MaxRMATScale)
	}
	return nil
}

// RMAT generates a Kronecker/RMAT graph with 2^scale vertices and
// edgeFactor*2^scale edges using the standard (0.57, 0.19, 0.19, 0.05)
// partition probabilities, yielding the heavy-tailed degree distribution
// of real-world graphs.
//
// Each bit of an edge's endpoints consumes one 53-bit draw k, the draw
// behind rng.Float64() = k/2^53, and picks the quadrant by comparing k
// against the integer thresholds of the cumulative probabilities. The
// comparison is exact, so the graph is the one drawing Float64 per bit
// would produce; the bits are set without branching on the draw.
// It panics if CheckRMAT rejects the sizes.
func RMAT(scale, edgeFactor int, seed uint64) *CSR {
	if err := CheckRMAT(scale, edgeFactor); err != nil {
		panic(err)
	}
	rng := sim.NewRNG(seed)
	n := 1 << scale
	m := n * edgeFactor
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		var s, d uint32
		for bit := scale - 1; bit >= 0; bit-- {
			k := rng.Uint64() >> 11
			// geX is 1 when k/2^53 >= X. The quadrants in order are
			// (src, dst) bits 00, 01, 10, 11, so the src bit is geAB and
			// the dst bit is set in the second and fourth quadrants.
			geA := (rmatA - 1 - k) >> 63
			geAB := (rmatAB - 1 - k) >> 63
			geABC := (rmatABC - 1 - k) >> 63
			s |= uint32(geAB) << bit
			d |= uint32(geA^geAB^geABC) << bit
		}
		src[i], dst[i] = s, d
	}
	return fromPairs(n, src, dst)
}

// The RMAT partition thresholds: the smallest k with k/2^53 >= p for the
// cumulative probabilities p = a, a+b, a+b+c of (0.57, 0.19, 0.19, 0.05).
var rmatA, rmatAB, rmatABC = drawThreshold(0.57), drawThreshold(0.57 + 0.19), drawThreshold(0.57 + 0.19 + 0.19)

// drawThreshold returns the smallest integer k with k/2^53 >= p, so that
// for a 53-bit draw k, k < drawThreshold(p) exactly when k/2^53 < p.
func drawThreshold(p float64) uint64 {
	return uint64(math.Ceil(math.Ldexp(p, 53)))
}
