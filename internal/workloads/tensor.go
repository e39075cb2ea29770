package workloads

import (
	"ndpext/internal/sim"
	"ndpext/internal/stream"
)

// vecStep is the dense-kernel emission granularity: the workloads use
// 64 B SIMD accesses (§VI), so dense scans step 16 float32 lanes per
// memory reference.
const vecStep = 16

// Recsys is DLRM-style recommendation inference: Zipf-skewed gathers from
// large embedding tables (indirect, read-only -- the headline replication
// winner, up to 2.43x in Fig. 5) plus a small hot MLP weight matrix.
func Recsys(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("recsys", cores, sc)
	np := sc.procs(cores)
	const tables = 4
	entries := sc.scaled(1<<14, 2048)
	mlpElems := sc.scaled(16384, 1024) // float32 weights
	popularity := sim.NewZipfTable(entries, 0.9)

	emit := make([]func(), np)
	for p := range emit {
		var embs [tables]*stream.Stream
		for t := 0; t < tables; t++ {
			embs[t] = b.indirect(entries, 64) // one 64 B embedding row per entry
		}
		mlp := b.affine(mlpElems, 4)
		pcores := procCores(cores, np, p)
		out := b.affine(sc.AccessesPerCore*len(pcores)/8+1024, 4)
		emit[p] = func() {
			rng := rngFor(seed, p)
			zipf := popularity.Sampler(rng)
			outIdx := 0
			for !procFull(b, pcores) {
				for _, core := range pcores {
					if b.full(core) {
						continue
					}
					// Gather: tables x 4 lookups each.
					for t := 0; t < tables; t++ {
						for l := 0; l < 4; l++ {
							b.read(core, embs[t], zipf.Next(), 2)
						}
					}
					// MLP: a strided pass over a slice of the hot weights.
					w0 := rng.Intn(mlpElems / 2)
					for i := 0; i < 32; i++ {
						b.read(core, mlp, w0+i*vecStep, 1)
					}
					b.write(core, out, outIdx%nelems(out), 1)
					outIdx++
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// MV is dense matrix-vector multiplication: the matrix streams through
// (affine, read-only, the Fig. 9(c) affine-cap stressor) while the input
// vector is reused by every row on every core (read-only, replicable; the
// paper reports up to 33% of cache space replicated for mv).
func MV(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("mv", cores, sc)
	np := sc.procs(cores)
	colsE := sc.scaled(4096, 512) // vector length in float32
	rowsE := sc.scaled(4096, 512) // matrix rows

	emit := make([]func(), np)
	for p := range emit {
		a := b.affine(rowsE*colsE, 4)
		x := b.affine(colsE, 4)
		y := b.affine(rowsE, 4)
		pcores := procCores(cores, np, p)
		emit[p] = func() {
			for ci, core := range pcores {
				lo, hi := ci*rowsE/len(pcores), (ci+1)*rowsE/len(pcores)
				for r := lo; r < hi && !b.full(core); r++ {
					for c := 0; c < colsE; c += vecStep {
						b.read(core, a, r*colsE+c, 1)
						b.read(core, x, c, 1)
					}
					b.write(core, y, r, 2)
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// GNN is one graph-convolution layer as sparse-dense matrix
// multiplication (the paper's gnn uses SpMM on Reddit): neighbor feature
// rows are gathered indirectly (read-only, replicable) and aggregated
// into the output features.
func GNN(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("gnn", cores, sc)
	np := sc.procs(cores)
	const featChunks = 4 // feature row = 4 x 64 B chunks (64 float32)

	vertices, err := sc.graphSize(1<<13, 1024, 10)
	if err != nil {
		return nil, err
	}
	emit := make([]func(), np)
	for p, g := range rmatGraphs(np, vertices, 10, seed, 7919) {
		offsets := b.affine(g.NumVertices()+1, 4)
		edges := b.affine(g.NumEdges(), 4)
		feats := b.indirect(g.NumVertices()*featChunks, 64) // H rows, read-only
		outF := b.affine(g.NumVertices()*featChunks, 64)    // H' rows
		weights := b.affine(sc.scaled(8192, 1024), 4)       // dense layer weights, hot

		pcores := procCores(cores, np, p)
		emit[p] = func() {
			for ci, core := range pcores {
				lo, hi := vertexRange(g, pcores, ci)
				for v := lo; v < hi && !b.full(core); v++ {
					b.read(core, offsets, v, 1)
					for ei, e := range g.Neighbors(v) {
						b.read(core, edges, int(g.Offsets[v])+ei, 0)
						for ch := 0; ch < featChunks; ch++ {
							b.read(core, feats, int(e)*featChunks+ch, 2)
						}
					}
					for i := 0; i < 16; i++ {
						b.read(core, weights, (v*16+i*vecStep)%nelems(weights), 1)
					}
					for ch := 0; ch < featChunks; ch++ {
						b.write(core, outF, v*featChunks+ch, 1)
					}
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}
