package workloads

import "ndpext/internal/stream"

// Backprop is the Rodinia neural-network training kernel with its two
// phases: layerforward reads the weight matrix heavily (read-only; the
// paper reports 91% of its cache space goes to replicas), then
// adjustweights writes the same weights, triggering the write exception
// that collapses replication (§IV-B, §V-C).
func Backprop(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("backprop", cores, sc)
	np := sc.procs(cores)
	inN := sc.scaled(256, 64) // input layer width (float32)
	hidN := sc.scaled(64, 16) // hidden layer width

	emit := make([]func(), np)
	for p := range emit {
		weights := b.affine(inN*hidN, 4) // in x hid weight matrix
		input := b.affine(inN, 4)
		hidden := b.affine(hidN, 4)
		delta := b.affine(hidN, 4)
		pcores := procCores(cores, np, p)
		emit[p] = func() {
			// Phase 1: layerforward until cores are half full.
			halfFull := func() bool {
				for _, c := range pcores {
					if len(b.perCore[c]) < b.budget/2 {
						return false
					}
				}
				return true
			}
			for !halfFull() {
				for ci, core := range pcores {
					if len(b.perCore[core]) >= b.budget/2 {
						continue
					}
					lo, hi := ci*hidN/len(pcores), (ci+1)*hidN/len(pcores)
					for h := lo; h < hi && len(b.perCore[core]) < b.budget/2; h++ {
						for i := 0; i < inN; i += vecStep {
							b.read(core, input, i, 1)
							b.read(core, weights, h*inN+i, 1)
						}
						b.write(core, hidden, h, 2)
					}
				}
			}
			// Phase 2: adjustweights -- writes to the weight matrix.
			for !procFull(b, pcores) {
				for ci, core := range pcores {
					if b.full(core) {
						continue
					}
					lo, hi := ci*hidN/len(pcores), (ci+1)*hidN/len(pcores)
					for h := lo; h < hi && !b.full(core); h++ {
						b.read(core, delta, h, 1)
						for i := 0; i < inN; i += vecStep {
							b.read(core, input, i, 0)
							b.write(core, weights, h*inN+i, 2)
						}
					}
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// Hotspot is the Rodinia thermal stencil: a 5-point sweep over the
// temperature grid with a read-only power grid. Cores own contiguous row
// bands and share only the boundary rows, so placement quality dominates
// (the paper's example: Nexus 113 ns vs NDPExt 38 ns interconnect
// latency).
func Hotspot(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("hotspot", cores, sc)
	np := sc.procs(cores)
	// Grid sized so one core's row band plus halo tracks the scaled
	// per-unit affine budget, mirroring the paper's regime where the
	// stencil working set fits the restricted affine space (§VII-C).
	n := sc.scaled(96, 32) // grid edge (float32 cells)

	emit := make([]func(), np)
	for p := range emit {
		tempIn := b.affine(n*n, 4)
		tempOut := b.affine(n*n, 4)
		power := b.affine(n*n, 4)
		pcores := procCores(cores, np, p)
		emit[p] = func() {
			// Functional state: the kernel really computes the thermal
			// update, not just its access pattern.
			tIn := make([]float32, n*n)
			tOut := make([]float32, n*n)
			pw := make([]float32, n*n)
			for i := range tIn {
				tIn[i] = 60
				pw[i] = float32(i%7) * 0.1
			}
			for iter := 0; iter < 8 && !procFull(b, pcores); iter++ {
				src, dst := tempIn, tempOut
				sv, dv := tIn, tOut
				if iter%2 == 1 {
					src, dst = tempOut, tempIn
					sv, dv = tOut, tIn
				}
				for ci, core := range pcores {
					lo, hi := ci*n/len(pcores), (ci+1)*n/len(pcores)
					for r := lo; r < hi && !b.full(core); r++ {
						for c := 0; c < n; c += vecStep {
							var up, down float32
							if r > 0 {
								b.read(core, src, (r-1)*n+c, 0)
								up = sv[(r-1)*n+c]
							}
							b.read(core, src, r*n+c, 0)
							cur := sv[r*n+c]
							if r < n-1 {
								b.read(core, src, (r+1)*n+c, 0)
								down = sv[(r+1)*n+c]
							}
							b.read(core, power, r*n+c, 1)
							dv[r*n+c] = cur + 0.1*(up+down-2*cur) + 0.05*pw[r*n+c]
							b.write(core, dst, r*n+c, 3)
						}
					}
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// LavaMD is the Rodinia molecular-dynamics kernel: particles live in a
// 3-D grid of boxes; each box reads its 26 neighbours' particle blocks
// (read-only gathers with spatial structure) and writes its forces.
func LavaMD(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("lavaMD", cores, sc)
	np := sc.procs(cores)
	dim := 6
	if sc.Mult < 0.5 {
		dim = 4
	}
	perBox := sc.scaled(64, 16) // particles per box
	boxes := dim * dim * dim

	emit := make([]func(), np)
	for p := range emit {
		particles := b.indirect(boxes*perBox, 32) // pos+charge, read-only
		forces := b.affine(boxes*perBox, 16)
		pcores := procCores(cores, np, p)
		emit[p] = func() {
			boxID := func(x, y, z int) int { return (z*dim+y)*dim + x }
			for bi := 0; bi < boxes; bi++ {
				core := pcores[bi%len(pcores)]
				if b.full(core) {
					continue
				}
				bx, by, bz := bi%dim, (bi/dim)%dim, bi/(dim*dim)
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							nx, ny, nz := bx+dx, by+dy, bz+dz
							if nx < 0 || ny < 0 || nz < 0 || nx >= dim || ny >= dim || nz >= dim {
								continue
							}
							nb := boxID(nx, ny, nz)
							for q := 0; q < perBox; q += 2 {
								b.read(core, particles, nb*perBox+q, 2)
							}
						}
					}
				}
				for q := 0; q < perBox; q += 4 {
					b.write(core, forces, bi*perBox+q, 2)
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// LUD is the Rodinia LU decomposition over a dense matrix: row sweeps,
// strided column sweeps (the reordered-iterator case the stream API's
// `order` argument exists for), and trailing-submatrix updates, all on a
// single read-write matrix.
func LUD(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("lud", cores, sc)
	np := sc.procs(cores)
	n := sc.scaled(128, 32)

	emit := make([]func(), np)
	for p := range emit {
		// The matrix is accessed column-major in the panel phase, so it
		// is registered with a column-first access order (§IV-A).
		mat := b.affine2D(n, n, 4, stream.OrderYXZ)
		pcores := procCores(cores, np, p)
		emit[p] = func() {
			for k := 0; k < n && !procFull(b, pcores); k++ {
				core := pcores[k%len(pcores)]
				// Row k sweep.
				for j := k; j < n && !b.full(core); j += vecStep {
					b.read(core, mat, k*n+j, 1)
				}
				// Column k sweep (strided).
				for i := k + 1; i < n && !b.full(core); i++ {
					b.read(core, mat, i*n+k, 1)
					b.write(core, mat, i*n+k, 1)
				}
				// Trailing submatrix update, split across the cores.
				for ci, c := range pcores {
					lo := k + 1 + ci*(n-k-1)/len(pcores)
					hi := k + 1 + (ci+1)*(n-k-1)/len(pcores)
					for i := lo; i < hi && !b.full(c); i++ {
						for j := k + 1; j < n && !b.full(c); j += vecStep {
							b.read(c, mat, i*n+k, 0)
							b.read(c, mat, k*n+j, 0)
							b.write(c, mat, i*n+j, 2)
						}
					}
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}

// Pathfinder is the Rodinia dynamic-programming kernel: the wall matrix
// streams through once (affine, read-only) while two small row buffers
// ping-pong (read-write, shared at the core boundaries).
func Pathfinder(cores int, seed uint64, sc Scale) (*Trace, error) {
	b := newBuilder("pathfinder", cores, sc)
	np := sc.procs(cores)
	colsN := sc.scaled(1<<13, 1024)
	rowsN := 48

	emit := make([]func(), np)
	for p := range emit {
		wall := b.affine(colsN*rowsN, 4)
		bufA := b.affine(colsN, 4)
		bufB := b.affine(colsN, 4)
		pcores := procCores(cores, np, p)
		emit[p] = func() {
			for r := 0; r < rowsN && !procFull(b, pcores); r++ {
				src, dst := bufA, bufB
				if r%2 == 1 {
					src, dst = bufB, bufA
				}
				for ci, core := range pcores {
					lo, hi := ci*colsN/len(pcores), (ci+1)*colsN/len(pcores)
					for c := lo; c < hi && !b.full(core); c += vecStep {
						b.read(core, wall, r*colsN+c, 0)
						if c > 0 {
							b.read(core, src, c-1, 0)
						}
						b.read(core, src, c, 0)
						if c < colsN-1 {
							b.read(core, src, c+1, 0)
						}
						b.write(core, dst, c, 2)
					}
				}
			}
		}
	}
	b.emitProcs(emit)
	return b.trace()
}
