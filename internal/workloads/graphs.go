package workloads

import (
	"fmt"
	"math/bits"

	"ndpext/internal/graph"
	"ndpext/internal/par"
	"ndpext/internal/stream"
)

// graphProc is one process's graph and its stream annotations.
type graphProc struct {
	g       *graph.CSR
	offsets *stream.Stream // affine u32, read-only
	edges   *stream.Stream // affine u32, read-only
	cores   []int
}

// The vertex count of the graph kernels' RMAT graphs at scale 1, and
// its floor at small scales.
const graphVertices, graphMinVertices = 1 << 15, 4096

// buildGraphProcs generates one RMAT graph per process and registers the
// CSR arrays as affine streams, mirroring the paper's annotation of the
// vertex list and edge list. It fails without generating anything when
// the graphs would exceed graph.RMAT's scale limit.
func buildGraphProcs(b *builder, cores int, seed uint64, sc Scale, edgeFactor int) ([]*graphProc, error) {
	np := sc.procs(cores)
	n, err := sc.graphSize(graphVertices, graphMinVertices, edgeFactor)
	if err != nil {
		return nil, err
	}
	graphs := rmatGraphs(np, n, edgeFactor, seed, 1000003)
	procs := make([]*graphProc, np)
	for p, g := range graphs {
		procs[p] = &graphProc{
			g:       g,
			offsets: b.affine(g.NumVertices()+1, 4),
			edges:   b.affine(g.NumEdges(), 4),
			cores:   procCores(cores, np, p),
		}
	}
	return procs, nil
}

// graphSize returns the vertex count of a generator's RMAT graphs at
// this scale: base at scale 1 and at least floor. It fails when the
// graphs, rounded up to a power of two as rmatGraphs rounds them,
// exceed graph.RMAT's scale limit.
func (s Scale) graphSize(base, floor, edgeFactor int) (int, error) {
	n := s.scaled(base, floor)
	if err := graph.CheckRMAT(rmatScale(n), edgeFactor); err != nil {
		return 0, fmt.Errorf("workloads: scale %g: %w", s.Mult, err)
	}
	return n, nil
}

// rmatScale is the RMAT scale of a graph of at least n vertices.
func rmatScale(n int) int { return bits.Len(uint(n - 1)) }

// rmatGraphs builds np RMAT graphs of n vertices rounded up to a power
// of two, graph p seeded seed+p*stride, on at most GOMAXPROCS
// goroutines, each building in its own reused graph.Scratch. Each graph
// depends only on its own seed, so the result is the one building them
// in order gives. A panic in a build is raised again in the caller.
func rmatGraphs(np, n, edgeFactor int, seed, stride uint64) []*graph.CSR {
	scale := rmatScale(n)
	graphs := make([]*graph.CSR, np)
	par.Each(np, func(scratch *graph.Scratch, p int) {
		graphs[p] = scratch.RMAT(scale, edgeFactor, seed+uint64(p)*stride)
	})
	return graphs
}

// vertexRange returns core index ci's contiguous vertex slice.
func vertexRange(g *graph.CSR, cores []int, ci int) (lo, hi int) {
	n := g.NumVertices()
	return ci * n / len(cores), (ci + 1) * n / len(cores)
}

// PageRank is the GAP pr kernel: pull-style rank accumulation. The vertex
// and edge lists are affine streams; the source-rank reads indexed by the
// edge list form an indirect stream. Both rank buffers are written across
// iterations, so pr exercises dynamic (non-replicated) placement.
func PageRank(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("pr", cores, sc)
	procs, err := buildGraphProcs(b, cores, seed, sc, 12)
	if err != nil {
		return nil, err
	}
	emit := make([]func(), len(procs))
	for pi, gp := range procs {
		n := gp.g.NumVertices()
		src := b.indirect(n, 4) // rank[u] read through edge targets
		dst := b.affine(n, 4)   // this iteration's output ranks
		emit[pi] = func() {
			ranks := make([]float32, n)
			for i := range ranks {
				ranks[i] = 1 / float32(n)
			}
			next := make([]float32, n)
			for iter := 0; iter < 8 && !procFull(b, gp.cores); iter++ {
				for ci, core := range gp.cores {
					lo, hi := vertexRange(gp.g, gp.cores, ci)
					for v := lo; v < hi && !b.full(core); v++ {
						b.read(core, gp.offsets, v, 1)
						var sum float32
						for ei, e := range gp.g.Neighbors(v) {
							b.read(core, gp.edges, int(gp.g.Offsets[v])+ei, 0)
							b.read(core, src, int(e), 2)
							d := gp.g.Degree(int(e))
							if d > 0 {
								sum += ranks[e] / float32(d)
							}
						}
						next[v] = 0.15/float32(n) + 0.85*sum
						b.write(core, dst, v, 1)
					}
				}
				copy(ranks, next)
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// BFS is the GAP breadth-first search: frontier expansion with indirect
// parent updates. The parent array is written, so it stays unreplicated.
func BFS(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("bfs", cores, sc)
	procs, err := buildGraphProcs(b, cores, seed, sc, 12)
	if err != nil {
		return nil, err
	}
	emit := make([]func(), len(procs))
	for pi, gp := range procs {
		n := gp.g.NumVertices()
		parent := b.indirect(n, 4)
		frontierS := b.affine(n, 4)
		emit[pi] = func() {
			rng := rngFor(seed, pi)
			// GAP runs BFS from many sources; keep starting new traversals
			// until the trace budget is reached.
			for trial := 0; trial < 32 && !procFull(b, gp.cores); trial++ {
				pred := make([]int32, n)
				for i := range pred {
					pred[i] = -1
				}
				root := int(rng.Uint64n(uint64(n)))
				pred[root] = int32(root)
				frontier := []int{root}
				for len(frontier) > 0 && !procFull(b, gp.cores) {
					var next []int
					for fi, u := range frontier {
						core := gp.cores[fi%len(gp.cores)]
						b.read(core, frontierS, fi%n, 1)
						b.read(core, gp.offsets, u, 0)
						for ei, e := range gp.g.Neighbors(u) {
							b.read(core, gp.edges, int(gp.g.Offsets[u])+ei, 0)
							b.read(core, parent, int(e), 2) // check visited
							if pred[e] == -1 {
								pred[e] = int32(u)
								b.write(core, parent, int(e), 1)
								next = append(next, int(e))
							}
						}
					}
					frontier = next
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// CC is connected components via label propagation over an undirected
// view of the graph: the component array is indirect and read-write.
func CC(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("cc", cores, sc)
	procs, err := buildGraphProcs(b, cores, seed, sc, 12)
	if err != nil {
		return nil, err
	}
	emit := make([]func(), len(procs))
	for pi, gp := range procs {
		n := gp.g.NumVertices()
		comp := b.indirect(n, 4)
		emit[pi] = func() {
			labels := make([]uint32, n)
			for i := range labels {
				labels[i] = uint32(i)
			}
			for iter := 0; iter < 6 && !procFull(b, gp.cores); iter++ {
				changed := false
				for ci, core := range gp.cores {
					lo, hi := vertexRange(gp.g, gp.cores, ci)
					for v := lo; v < hi && !b.full(core); v++ {
						b.read(core, gp.offsets, v, 1)
						best := labels[v]
						b.read(core, comp, v, 0)
						for ei, e := range gp.g.Neighbors(v) {
							b.read(core, gp.edges, int(gp.g.Offsets[v])+ei, 0)
							b.read(core, comp, int(e), 2)
							if labels[e] < best {
								best = labels[e]
							}
						}
						if best < labels[v] {
							labels[v] = best
							changed = true
							b.write(core, comp, v, 1)
						}
					}
				}
				if !changed {
					break
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// BC is one-source betweenness centrality: a forward BFS accumulating
// path counts (sigma) followed by a reverse sweep accumulating
// dependencies (delta); both per-vertex arrays are indirect, read-write.
func BC(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("bc", cores, sc)
	procs, err := buildGraphProcs(b, cores, seed, sc, 12)
	if err != nil {
		return nil, err
	}
	emit := make([]func(), len(procs))
	for pi, gp := range procs {
		n := gp.g.NumVertices()
		sigma := b.indirect(n, 4)
		delta := b.indirect(n, 4)
		depthS := b.indirect(n, 4)
		emit[pi] = func() {
			depth := make([]int32, n)
			for i := range depth {
				depth[i] = -1
			}
			sig := make([]float32, n)
			root := int(rngFor(seed, pi).Uint64n(uint64(n)))
			depth[root] = 0
			sig[root] = 1
			levels := [][]int{{root}}
			// Forward phase.
			for len(levels[len(levels)-1]) > 0 && !procFull(b, gp.cores) {
				cur := levels[len(levels)-1]
				var next []int
				for fi, u := range cur {
					core := gp.cores[fi%len(gp.cores)]
					b.read(core, gp.offsets, u, 1)
					for ei, e := range gp.g.Neighbors(u) {
						b.read(core, gp.edges, int(gp.g.Offsets[u])+ei, 0)
						b.read(core, depthS, int(e), 1)
						if depth[e] == -1 {
							depth[e] = depth[u] + 1
							next = append(next, int(e))
							b.write(core, depthS, int(e), 0)
						}
						if depth[e] == depth[u]+1 {
							sig[e] += sig[u]
							b.read(core, sigma, u, 1)
							b.write(core, sigma, int(e), 1)
						}
					}
				}
				levels = append(levels, next)
			}
			// Backward phase.
			for li := len(levels) - 1; li > 0 && !procFull(b, gp.cores); li-- {
				for fi, u := range levels[li] {
					core := gp.cores[fi%len(gp.cores)]
					b.read(core, gp.offsets, u, 1)
					for ei, e := range gp.g.Neighbors(u) {
						b.read(core, gp.edges, int(gp.g.Offsets[u])+ei, 0)
						b.read(core, depthS, int(e), 1)
						if depth[e] == depth[u]+1 {
							b.read(core, sigma, int(e), 1)
							b.read(core, delta, int(e), 1)
							b.write(core, delta, u, 1)
						}
					}
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// TC counts triangles by adjacency-list intersection: a streaming scan of
// N(u) against data-dependent scans of N(v), all within the edge-list
// affine stream.
func TC(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("tc", cores, sc)
	procs, err := buildGraphProcs(b, cores, seed, sc, 8)
	if err != nil {
		return nil, err
	}
	emit := make([]func(), len(procs))
	for pi, gp := range procs {
		emit[pi] = func() {
			for ci, core := range gp.cores {
				lo, hi := vertexRange(gp.g, gp.cores, ci)
				triangles := 0
				for u := lo; u < hi && !b.full(core); u++ {
					b.read(core, gp.offsets, u, 1)
					nu := gp.g.Neighbors(u)
					for vi, v := range nu {
						if int(v) <= u {
							continue
						}
						b.read(core, gp.edges, int(gp.g.Offsets[u])+vi, 0)
						b.read(core, gp.offsets, int(v), 0)
						nv := gp.g.Neighbors(int(v))
						// Merge-intersection of sorted lists.
						i, j := 0, 0
						for i < len(nu) && j < len(nv) {
							b.read(core, gp.edges, int(gp.g.Offsets[u])+i, 0)
							b.read(core, gp.edges, int(gp.g.Offsets[int(v)])+j, 2)
							switch {
							case nu[i] == nv[j]:
								triangles++
								i++
								j++
							case nu[i] < nv[j]:
								i++
							default:
								j++
							}
							if b.full(core) {
								break
							}
						}
					}
					if b.full(core) {
						break
					}
				}
				_ = triangles
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}
