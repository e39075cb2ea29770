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

// Scratch holds the buffers a graph is built in. A Scratch reused across
// graphs reallocates a buffer only when a graph needs a larger one; the
// graphs it returns share no storage with it. The zero value is ready to use. A Scratch is not safe
// for concurrent use.
type Scratch struct {
	draws         []uint64 // one batch of RMAT's random draws
	src, dst      []uint32 // the edge list
	bySrc         []uint32 // the sources, bucketed by destination
	start, cursor []uint32 // per-vertex bucket starts and scatter cursors
}

// grow returns b resized to n, reallocating only when it is too short.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// fromPairs builds a CSR from (src, dst) pairs.
func fromPairs(n int, src, dst []uint32) *CSR {
	var s Scratch
	return s.csr(n, src, dst)
}

// csr builds the CSR of the (src, dst) pairs with every adjacency list
// sorted, GAP-style, for locality and for the intersection-based
// triangle counting. It is a two-pass counting sort: the sources are
// bucketed by destination, then the buckets are scattered in increasing
// destination order, each source to the next free slot of its row. Each
// row therefore fills in ascending order, and holds the values sorting
// it would give: equal destinations are indistinguishable.
func (s *Scratch) csr(n int, src, dst []uint32) *CSR {
	start := grow(s.start, n+1)
	clear(start)
	for _, d := range dst {
		start[d+1]++
	}
	for v := 1; v <= n; v++ {
		start[v] += start[v-1]
	}
	cursor := grow(s.cursor, n)
	copy(cursor, start)
	bySrc := grow(s.bySrc, len(src))
	for i, d := range dst {
		bySrc[cursor[d]] = src[i]
		cursor[d]++
	}

	offsets := make([]uint32, n+1)
	for _, u := range src {
		offsets[u+1]++
	}
	for v := 1; v <= n; v++ {
		offsets[v] += offsets[v-1]
	}
	copy(cursor, offsets)
	edges := make([]uint32, len(src))
	for v := range n {
		for _, u := range bySrc[start[v]:start[v+1]] {
			edges[cursor[u]] = uint32(v)
			cursor[u]++
		}
	}
	s.start, s.cursor, s.bySrc = start, cursor, bySrc
	return &CSR{Offsets: offsets, Edges: edges}
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
// of real-world graphs. It panics if CheckRMAT rejects the sizes.
func RMAT(scale, edgeFactor int, seed uint64) *CSR {
	var s Scratch
	return s.RMAT(scale, edgeFactor, seed)
}

// rmatBatch is the number of draws RMAT takes from its generator at a
// time: a batch of whole edges, 32 KB of draws.
const rmatBatch = 4096

// RMAT builds the graph the package-level RMAT builds, in s's buffers.
//
// Each bit of an edge's endpoints consumes one draw, whose top 53 bits k
// are the draw behind rng.Float64() = k/2^53; the bit's quadrant is the
// number of cumulative-probability thresholds k reaches. The draws come
// in batches of whole edges from rng.Fill. A draw's top byte selects a
// range of 2^45 values of k, and rmatBits holds the quadrant's bits for
// every range that lies between two thresholds; only the three ranges a
// threshold splits compare k itself. Either way the quadrant is the one
// comparing k/2^53 with the probabilities gives, so the graph is the one
// drawing Float64 per bit builds.
func (s *Scratch) RMAT(scale, edgeFactor int, seed uint64) *CSR {
	if err := CheckRMAT(scale, edgeFactor); err != nil {
		panic(err)
	}
	rng := sim.NewRNG(seed)
	n := 1 << scale
	m := n * edgeFactor
	src, dst := grow(s.src, m), grow(s.dst, m)
	perBatch := max(rmatBatch/scale, 1)
	draws := grow(s.draws, perBatch*scale)
	for i := 0; i < m; i += perBatch {
		edges := min(perBatch, m-i)
		batch := draws[:edges*scale]
		rng.Fill(batch)
		for e := range edges {
			// The src bits collect from bit 32 up, the dst bits from
			// bit 0; scale <= 28 keeps the two apart.
			var sd uint64
			for _, x := range batch[e*scale : (e+1)*scale] {
				b := rmatBits[x>>56]
				if b == rmatSplit {
					b = quadrantBits(x >> 11)
				}
				sd = sd<<1 | b
			}
			src[i+e], dst[i+e] = uint32(sd>>32), uint32(sd)
		}
	}
	s.src, s.dst, s.draws = src, dst, draws
	return s.csr(n, src, dst)
}

// quadrantBits returns the (src, dst) bits of the quadrant of the 53-bit
// draw k, the src bit at bit 32. The quadrants in order are the bit
// pairs 00, 01, 10, 11, so the src bit is set once k reaches rmatAB and
// the dst bit once it reaches an odd number of thresholds.
func quadrantBits(k uint64) uint64 {
	// (t - 1 - k) >> 63 is 1 exactly when k >= t.
	geA, geAB, geABC := (rmatA-1-k)>>63, (rmatAB-1-k)>>63, (rmatABC-1-k)>>63
	return geAB<<32 | geA ^ geAB ^ geABC
}

// rmatSplit marks a top byte whose range of draws a threshold splits.
const rmatSplit = math.MaxUint64

// rmatBits maps a draw's top byte to the quadrantBits of every draw with
// that byte, or to rmatSplit. The quadrant rises with k, so a range
// whose first and last draws share a quadrant lies within it.
var rmatBits = func() (t [256]uint64) {
	for b := range t {
		lo := uint64(b) << 45
		hi := lo + 1<<45 - 1
		t[b] = quadrantBits(lo)
		if t[b] != quadrantBits(hi) {
			t[b] = rmatSplit
		}
	}
	return t
}()

// The RMAT partition thresholds: the smallest k with k/2^53 >= p for the
// cumulative probabilities p = a, a+b, a+b+c of (0.57, 0.19, 0.19, 0.05).
var rmatA, rmatAB, rmatABC = drawThreshold(0.57), drawThreshold(0.57 + 0.19), drawThreshold(0.57 + 0.19 + 0.19)

// drawThreshold returns the smallest integer k with k/2^53 >= p, so that
// for a 53-bit draw k, k < drawThreshold(p) exactly when k/2^53 < p.
func drawThreshold(p float64) uint64 {
	return uint64(math.Ceil(math.Ldexp(p, 53)))
}
