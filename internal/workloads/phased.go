package workloads

// Phased is the phase-changing co-location trace for the adaptive
// (NDPExt-MAB) experiments: each core spends the first half of its
// budget in a dense matrix-vector phase (streaming matrix plus a hot
// reused input vector — the regime where the curve-driven paper
// optimizer shines and recency-greedy sizing wastes capacity on the
// streaming matrix) and the second half in a sparse PageRank phase
// (irregular rank gathers over an RMAT graph — the regime where
// greedy's instant reaction to the access shift beats the damped
// optimizer). No single fixed configuration policy is optimal across
// both halves, which is exactly what the bandit is for.
func Phased(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("phased", cores, sc)
	np := sc.procs(cores)
	colsE := sc.scaled(4096, 512)
	rowsE := sc.scaled(4096, 512)
	vertices, err := sc.graphSize(graphVertices, graphMinVertices, 12)
	if err != nil {
		return nil, err
	}
	graphs := rmatGraphs(np, vertices, 12, seed, 1000003)

	emit := make([]func(), len(graphs))
	for p, g := range graphs {
		// Dense-phase streams (the mv shape).
		a := b.affine(rowsE*colsE, 4)
		x := b.affine(colsE, 4)
		y := b.affine(rowsE, 4)
		// Sparse-phase streams (the pr shape).
		gn := g.NumVertices()
		offsets := b.affine(gn+1, 4)
		edges := b.affine(g.NumEdges(), 4)
		src := b.indirect(gn, 4) // rank[u] read through edge targets
		dst := b.affine(gn, 4)

		pcores := procCores(cores, np, p)
		half := sc.AccessesPerCore / 2
		emit[p] = func() {
			// Phase 1: row sweeps over the core's matrix slice, wrapping
			// until half the budget is spent.
			for ci, core := range pcores {
				lo, hi := ci*rowsE/len(pcores), (ci+1)*rowsE/len(pcores)
				for r := lo; len(b.perCore[core]) < half; r++ {
					if r >= hi {
						r = lo
					}
					for c := 0; c < colsE && len(b.perCore[core]) < half; c += vecStep {
						b.read(core, a, r*colsE+c, 1)
						b.read(core, x, c, 1)
					}
					b.write(core, y, r, 2)
				}
			}

			// Phase 2: pull-style rank accumulation until the budget fills.
			for !procFull(b, pcores) {
				for ci, core := range pcores {
					lo, hi := vertexRange(g, pcores, ci)
					for v := lo; v < hi && !b.full(core); v++ {
						b.read(core, offsets, v, 1)
						for ei, e := range g.Neighbors(v) {
							b.read(core, edges, int(g.Offsets[v])+ei, 0)
							b.read(core, src, int(e), 2)
						}
						b.write(core, dst, v, 1)
					}
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}
