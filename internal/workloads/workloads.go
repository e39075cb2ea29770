// Package workloads implements the paper's evaluation workloads (§VI):
// tensor kernels (recsys, mv, gnn), Rodinia ports (backprop, hotspot,
// lavaMD, lud, pathfinder), and GAP graph kernels (bfs, pr, cc, bc, tc).
//
// Each workload is a functional kernel over synthetic data that emits the
// per-core memory access trace the simulator replays, with every data
// structure annotated as an affine or indirect stream exactly as the
// paper's few-lines-of-code annotations do. Following §VI, multiple
// processes of each workload run side by side (each on its own slice of
// cores with its own copy of the data) so the total footprint exceeds the
// NDP memory.
package workloads

import (
	"fmt"
	"sort"

	"ndpext/internal/par"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
)

// Access is one memory reference in a core's trace. Gap is the number of
// core cycles of compute preceding the access.
type Access struct {
	Addr  uint64
	Write bool
	Gap   uint8
}

// Trace is a generated workload: stream annotations plus per-core access
// sequences.
type Trace struct {
	Name    string
	Table   *stream.Table
	PerCore [][]Access
}

// TotalAccesses sums the accesses across cores.
func (t *Trace) TotalAccesses() int {
	n := 0
	for _, c := range t.PerCore {
		n += len(c)
	}
	return n
}

// Clone returns a trace sharing the per-core access slices, with a copy
// of the stream table in which every stream is freshly configured
// (read-only bit set, §IV-B).
//
// Deprecated: a run copies its input's stream table and never mutates
// the input, so one trace can be simulated any number of times without
// cloning it.
func (t *Trace) Clone() *Trace {
	nt := &Trace{Name: t.Name, Table: t.Table.Clone(), PerCore: t.PerCore}
	for _, s := range nt.Table.All() {
		s.ReadOnly = true
	}
	return nt
}

// Scale sizes a generated workload. Mult scales every data structure;
// AccessesPerCore soft-bounds trace length (generation stops once every
// core reaches it). ProcsFor(cores) processes run side by side.
type Scale struct {
	Mult            float64
	AccessesPerCore int
	CoresPerProc    int
}

// DefaultScale is the model-scale configuration used by the benchmarks:
// with the default system (128 units x 192 kB) the aggregate footprints
// exceed the distributed cache, as in the paper's setup.
func DefaultScale() Scale { return Scale{Mult: 1, AccessesPerCore: 30000, CoresPerProc: 16} }

// TinyScale keeps unit tests fast.
func TinyScale() Scale { return Scale{Mult: 0.12, AccessesPerCore: 2500, CoresPerProc: 8} }

// scaled multiplies n by the scale factor, keeping at least lo.
func (s Scale) scaled(n, lo int) int {
	v := int(float64(n) * s.Mult)
	if v < lo {
		v = lo
	}
	return v
}

// CheckGraphs reports an error when the graph workloads cannot build
// their RMAT graphs at this scale: the graph kernels' 2^15 vertices
// times Mult, the largest graphs any generator builds, must fit
// graph.RMAT's scale limit. Those generators fail with the same error.
func (s Scale) CheckGraphs() error {
	_, err := s.graphSize(graphVertices, graphMinVertices, 1)
	return err
}

// procs returns the process count for the given core count.
func (s Scale) procs(cores int) int {
	cpp := s.CoresPerProc
	if cpp <= 0 {
		cpp = 16
	}
	p := cores / cpp
	if p < 1 {
		p = 1
	}
	return p
}

// Generator builds a workload trace for the given core count.
type Generator func(cores int, seed uint64, sc Scale) (*Trace, error)

// All maps workload names to their generators: the paper's 13
// workloads plus the phase-changing adaptive-experiment trace.
var All = map[string]Generator{
	"recsys":     Recsys,
	"mv":         MV,
	"gnn":        GNN,
	"backprop":   Backprop,
	"hotspot":    Hotspot,
	"lavaMD":     LavaMD,
	"lud":        LUD,
	"pathfinder": Pathfinder,
	"bfs":        BFS,
	"pr":         PageRank,
	"cc":         CC,
	"bc":         BC,
	"tc":         TC,
	"phased":     Phased,
}

// Names returns the workload names in sorted order.
func Names() []string {
	out := make([]string, 0, len(All))
	for n := range All {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns the named generator.
func Get(name string) (Generator, error) {
	g, ok := All[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	return g, nil
}

// builder accumulates a trace: a bump address allocator, stream
// registration, and per-core emission with budget tracking.
//
// A stream that cannot be registered (its base or size exceeds the
// remap fields at a large scale, or the stream IDs run out) records the
// builder's first error. From then on every core counts as full, so the
// generator's loops end at once, and trace returns the error.
type builder struct {
	name    string
	tbl     *stream.Table
	next    uint64
	nextSID stream.ID
	perCore [][]Access
	budget  int
	err     error
}

func newBuilder(name string, cores int, sc Scale) *builder {
	return &builder{
		name:    name,
		tbl:     stream.NewTable(),
		next:    1 << 20,
		nextSID: 1,
		perCore: make([][]Access, cores),
		budget:  sc.AccessesPerCore,
	}
}

// alloc reserves size bytes of address space (2 MB aligned so streams
// never collide).
func (b *builder) alloc(size uint64) uint64 {
	const align = 2 << 20
	base := b.next
	b.next += (size + align - 1) / align * align
	return base
}

// affine allocates and registers a flat affine stream of count elements.
func (b *builder) affine(count int, elemSize uint32) *stream.Stream {
	size := uint64(count) * uint64(elemSize)
	return b.register(stream.Configure(b.sid(), stream.Affine, b.alloc(size), size, elemSize))
}

// affine2D allocates and registers a 2-D affine stream (lenX columns by
// lenY rows) with the given access order.
func (b *builder) affine2D(lenX, lenY int, elemSize uint32, order stream.Order) *stream.Stream {
	base := b.alloc(uint64(lenX) * uint64(lenY) * uint64(elemSize))
	return b.register(stream.ConfigureAffine3D(b.sid(), base, elemSize, uint64(lenX), uint64(lenY), 1, order))
}

// indirect allocates and registers an indirect stream of count elements.
func (b *builder) indirect(count int, elemSize uint32) *stream.Stream {
	size := uint64(count) * uint64(elemSize)
	return b.register(stream.Configure(b.sid(), stream.Indirect, b.alloc(size), size, elemSize))
}

// register adds s, which err reports as invalid or not, to the table.
// On failure it records the builder's first error and returns a
// one-element stand-in outside the table, so the generator can finish
// its set-up without emitting anything.
func (b *builder) register(s *stream.Stream, err error) *stream.Stream {
	if err == nil {
		err = b.tbl.Add(s)
	}
	if err == nil {
		return s
	}
	if b.err == nil {
		b.err = fmt.Errorf("workloads %s: %w", b.name, err)
	}
	return &stream.Stream{SID: stream.NoStream, Type: stream.Affine, Size: 8, ElemSize: 8, Stride: [3]uint64{8}}
}

// sid hands out the next stream ID. Past the last one it returns
// NoStream, which stream validation then refuses.
func (b *builder) sid() stream.ID {
	id := b.nextSID
	if id < stream.NoStream {
		b.nextSID++
	}
	return id
}

// full reports whether core reached its budget, or the build failed.
func (b *builder) full(core int) bool {
	return b.err != nil || len(b.perCore[core]) >= b.budget
}

// read/write emit one access of element idx of stream s on core.
func (b *builder) read(core int, s *stream.Stream, idx int, gap uint8) {
	b.emit(core, s.Base+uint64(idx)*uint64(s.ElemSize), false, gap)
}

func (b *builder) write(core int, s *stream.Stream, idx int, gap uint8) {
	b.emit(core, s.Base+uint64(idx)*uint64(s.ElemSize), true, gap)
}

func (b *builder) emit(core int, addr uint64, write bool, gap uint8) {
	if b.full(core) {
		return
	}
	b.perCore[core] = append(b.perCore[core], Access{Addr: addr, Write: write, Gap: gap})
}

// presizeLimit caps the capacity emitProcs gives a core up front, so a
// budget far beyond what a generator emits does not allocate the
// budget; a core that passes it grows by append.
const presizeLimit = 1 << 16

// emitProcs runs the processes' emission: procs[p] emits only on the
// cores procCores(cores, len(procs), p) and touches no state of another
// process, so the processes run on at most GOMAXPROCS goroutines and
// the trace is the one running them in order gives. A build that
// already failed emits nothing.
//
// Each goroutine gives its process's cores slices of capacity budget
// (up to presizeLimit), which emit then never has to grow. A core that
// fills its slice keeps it; a shorter one is copied out at its exact
// length and its slice goes back to the goroutine's pool for the next
// process. The trace so holds exactly its accesses, and the pools hold
// at most one process's cores per goroutine on top.
func (b *builder) emitProcs(procs []func()) {
	if b.err != nil {
		return
	}
	np := len(procs)
	size := min(max(b.budget, 0), presizeLimit)
	par.Each(np, func(pool *[][]Access, p int) {
		cores := procCores(len(b.perCore), np, p)
		for _, c := range cores {
			if n := len(*pool); n > 0 {
				b.perCore[c], *pool = (*pool)[n-1], (*pool)[:n-1]
			} else {
				b.perCore[c] = make([]Access, 0, size)
			}
		}
		procs[p]()
		for _, c := range cores {
			pc := b.perCore[c]
			if len(pc) > 0 && len(pc) == cap(pc) {
				continue
			}
			b.perCore[c] = nil
			if len(pc) > 0 {
				b.perCore[c] = append(make([]Access, 0, len(pc)), pc...)
			}
			*pool = append(*pool, pc[:0])
		}
	})
}

// trace returns the finished trace, or the first error of the build.
func (b *builder) trace() (*Trace, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &Trace{Name: b.name, Table: b.tbl, PerCore: b.perCore}, nil
}

// procCores returns the core IDs belonging to process p of np processes.
func procCores(cores, np, p int) []int {
	lo, hi := p*cores/np, (p+1)*cores/np
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// rngFor derives a process-specific RNG.
func rngFor(seed uint64, proc int) *sim.RNG {
	return sim.NewRNG(seed).Split(uint64(proc) + 1)
}

// nelems returns a stream's element count as an int.
func nelems(s *stream.Stream) int { return int(s.NumElements()) }

// procFull reports whether every listed core reached its budget.
func procFull(b *builder, cores []int) bool {
	for _, c := range cores {
		if !b.full(c) {
			return false
		}
	}
	return true
}
