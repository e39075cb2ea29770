package workloads

import "ndpext/internal/stream"

// Builder is the public trace-construction API: it lets library users
// write custom workloads against the stream abstraction exactly the way
// the built-in workloads are written -- allocate data structures, declare
// them as affine or indirect streams (the paper's configure_stream), and
// emit per-core reads and writes.
type Builder struct {
	b *builder
}

// NewBuilder starts a trace named name for the given core count;
// accessesPerCore soft-bounds each core's trace length.
func NewBuilder(name string, cores, accessesPerCore int) *Builder {
	if cores <= 0 || accessesPerCore <= 0 {
		panic("workloads: NewBuilder requires positive cores and budget")
	}
	return &Builder{b: newBuilder(name, cores, Scale{AccessesPerCore: accessesPerCore})}
}

// Affine allocates a data structure of count elements and registers it as
// a flat affine stream (sequential/strided access pattern).
func (bl *Builder) Affine(count int, elemSize uint32) *stream.Stream {
	return bl.check(bl.b.affine(count, elemSize))
}

// Affine2D allocates a 2-D affine stream of lenX x lenY elements with an
// explicit access order (e.g. stream.OrderYXZ for column-major access to
// row-major storage).
func (bl *Builder) Affine2D(lenX, lenY int, elemSize uint32, order stream.Order) *stream.Stream {
	return bl.check(bl.b.affine2D(lenX, lenY, elemSize, order))
}

// Indirect allocates a data structure of count elements accessed
// data-dependently (addr = s[i]) and registers it as an indirect stream.
func (bl *Builder) Indirect(count int, elemSize uint32) *stream.Stream {
	return bl.check(bl.b.indirect(count, elemSize))
}

// check returns s, or panics with the build's error: an invalid stream
// is a programming error in a custom workload.
func (bl *Builder) check(s *stream.Stream) *stream.Stream {
	if bl.b.err != nil {
		panic(bl.b.err.Error())
	}
	return s
}

// Read emits a read of element idx of s on the given core; gap is the
// number of compute cycles preceding the access.
func (bl *Builder) Read(core int, s *stream.Stream, idx int, gap uint8) {
	bl.b.read(core, s, idx, gap)
}

// Write emits a write of element idx of s on the given core.
func (bl *Builder) Write(core int, s *stream.Stream, idx int, gap uint8) {
	bl.b.write(core, s, idx, gap)
}

// Full reports whether the core's trace reached its budget.
func (bl *Builder) Full(core int) bool { return bl.b.full(core) }

// Build finalizes the trace.
func (bl *Builder) Build() *Trace {
	t, err := bl.b.trace()
	if err != nil {
		panic(err.Error())
	}
	return t
}
