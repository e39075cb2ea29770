// Package ndpext is a from-scratch reproduction of "Stream-Based Data
// Placement for Near-Data Processing with Extended Memory" (MICRO 2024):
// NDPExt, a hardware-software co-design that manages the DRAM of
// 3D-stacked NDP units as a distributed, stream-granularity cache in
// front of CXL-attached extended memory.
//
// The package is a façade over the full system:
//
//   - a cycle-approximate simulator of the Table II machine (128 in-order
//     NDP cores in 8 stacks, HBM3/HMC2 stack memory, mesh interconnect,
//     CXL.mem extended memory),
//   - the NDPExt stream cache (SLB, affine tag array, embedded-tag
//     indirect caching, per-stream replication groups, consistent-hash
//     placement),
//   - the host runtime (set-based miss-curve samplers, max-flow sampler
//     assignment, the Algorithm 1 configuration optimizer),
//   - the baselines the paper compares against (Jigsaw, Whirlpool, Nexus,
//     static interleaving, and a non-NDP host), and
//   - the paper's 13 evaluation workloads plus a Builder for custom ones.
//
// Quick start:
//
//	tr, _ := ndpext.GenerateTrace("recsys", 128, 1)
//	res, _ := ndpext.Simulate(ndpext.DefaultConfig(ndpext.DesignNDPExt), tr)
//	fmt.Println(res.Time, res.CacheHitRate())
package ndpext

import (
	"context"

	"ndpext/internal/bench"
	"ndpext/internal/runspec"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/system"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

// Duration is simulated time (picosecond resolution); FromNS converts
// nanoseconds, e.g. cfg.CXL.LinkLatency = ndpext.FromNS(400).
type Duration = sim.Time

// FromNS converts nanoseconds to simulated time.
func FromNS(ns float64) Duration { return sim.FromNS(ns) }

// Design selects the cache-management scheme to simulate.
type Design = system.Design

// The designs evaluated in the paper's Fig. 5.
const (
	DesignNDPExt       = system.NDPExt
	DesignNDPExtStatic = system.NDPExtStatic
	DesignNexus        = system.Nexus
	DesignWhirlpool    = system.Whirlpool
	DesignJigsaw       = system.Jigsaw
	DesignStatic       = system.StaticInterleave
	DesignHost         = system.Host
)

// Config describes a simulated machine (Table II defaults at model
// scale); Result is one run's outcome.
type (
	Config = system.Config
	Result = system.Result
)

// Trace is a workload: stream annotations plus per-core access traces.
// Stream is one annotated data structure (the paper's Table I metadata);
// Builder constructs custom traces against the stream API.
type (
	Trace   = workloads.Trace
	Stream  = stream.Stream
	Builder = workloads.Builder
)

// Access orders for multi-dimensional affine streams (the 3-bit `order`
// argument of configure_stream).
const (
	OrderXYZ = stream.OrderXYZ
	OrderYXZ = stream.OrderYXZ
	OrderXZY = stream.OrderXZY
	OrderZYX = stream.OrderZYX
	OrderYZX = stream.OrderYZX
	OrderZXY = stream.OrderZXY
)

// DefaultConfig returns the paper's Table II machine (HBM3-style NDP
// memory) configured for the given design.
func DefaultConfig(d Design) Config { return system.DefaultConfig(d) }

// HMCConfig returns the HMC2-style variant (Fig. 5(b)).
func HMCConfig(d Design) Config { return system.HMCConfig(d) }

// Designs lists the NDP designs in the paper's plotting order.
func Designs() []Design { return system.NDPDesigns() }

// Workloads lists the built-in workloads: the paper's 13 evaluation
// kernels plus the phase-changing `phased` trace for the adaptive
// (NDPExt-MAB) experiments.
func Workloads() []string { return workloads.Names() }

// GenerateTrace builds one of the built-in workloads for a machine with
// the given core count, at the default model scale.
func GenerateTrace(name string, cores int, seed uint64) (*Trace, error) {
	return GenerateTraceN(name, cores, seed, workloads.DefaultScale().AccessesPerCore)
}

// GenerateTraceN is GenerateTrace with an explicit per-core access
// budget (shorter traces run faster; longer ones stress capacity more).
func GenerateTraceN(name string, cores int, seed uint64, accessesPerCore int) (*Trace, error) {
	return runspec.Spec{Workload: name, Seed: seed, Accesses: accessesPerCore, Scale: 1}.Generate(cores)
}

// NewBuilder starts a custom workload trace (see Builder).
func NewBuilder(name string, cores, accessesPerCore int) *Builder {
	return workloads.NewBuilder(name, cores, accessesPerCore)
}

// SaveTrace writes a trace to an NDPTRC file so expensive generated
// workloads can be replayed across runs; LoadTrace reads it back.
func SaveTrace(tr *Trace, path string) error { return trace.SaveFile(path, tr) }

// LoadTrace reads an NDPTRC trace file (written by SaveTrace, ndpsim
// -save-trace or -record, or ndptrace convert) into memory. A file that
// is not a valid NDPTRC trace fails with an error wrapping
// trace.ErrCorrupt.
func LoadTrace(path string) (*Trace, error) {
	r, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Materialize()
}

// Simulate runs the trace on the configured machine. The run works on
// its own copy of the trace's stream table and leaves the trace as it
// found it, so one trace may be simulated any number of times, including
// concurrently.
func Simulate(cfg Config, tr *Trace) (*Result, error) {
	return system.RunContext(context.Background(), cfg, tr.Source())
}

// Experiments exposes the paper's evaluation harness (one function per
// figure); see the internal/bench package and cmd/experiments.
type Experiments = bench.Options

// QuickExperiments returns a reduced experiment scale for fast runs.
func QuickExperiments() Experiments { return bench.Quick() }

// FullExperiments returns the full 13-workload matrix.
func FullExperiments() Experiments { return bench.Default() }
