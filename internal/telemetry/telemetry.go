// Package telemetry is the accounting bus of the simulator: every
// component on the memory path (the system's pipeline stages, the NoC,
// the DRAM devices, the CXL extended memory, and the cache controllers)
// reports into it, and the run-level summaries (`system.Result`,
// `stats.Breakdown`) are views computed from it after the event loop.
//
// The package has two halves:
//
//   - Hot-path accumulation: Counters is a fixed-layout, allocation-free
//     struct of per-level latency accumulators and event tallies that the
//     pipeline stages bump inline. An optional Probe receives sampled
//     per-access Event records (core, stream, level served, per-level
//     latency) for tracing.
//
//   - End-of-run export: Registry is an ordered set of named scalar
//     metrics that devices publish their counters into, so reports and
//     derived statistics (energy, hit rates) read one uniform place.
package telemetry

import "ndpext/internal/sim"

// Level identifies one latency-attribution bucket of the memory path,
// mirroring the paper's Fig. 2(a) decomposition.
type Level int

const (
	// LevelCore is compute gaps plus L1 access time.
	LevelCore Level = iota
	// LevelMeta is metadata time: SLB lookups (NDPExt) or metadata-cache
	// lookups and DRAM metadata walks (baselines).
	LevelMeta
	// LevelIntraNoC is time on the intra-stack unit mesh.
	LevelIntraNoC
	// LevelInterNoC is time on inter-stack links, including queueing.
	LevelInterNoC
	// LevelCacheDRAM is DRAM cache access time at the home unit.
	LevelCacheDRAM
	// LevelExtended is CXL link plus extended-memory time.
	LevelExtended

	// NumLevels is the bucket count; arrays indexed by Level use it.
	NumLevels
)

var levelNames = [NumLevels]string{
	"core", "meta", "intra-noc", "inter-noc", "dram", "extended",
}

// String returns the level's name as used in figures and trace records.
func (l Level) String() string {
	if l < 0 || l >= NumLevels {
		return "unknown"
	}
	return levelNames[l]
}

// Counters is the allocation-free hot-path accumulator for one run.
// Pipeline stages add latency into Levels and bump the tallies inline;
// nothing here allocates or locks (one simulation is single-threaded).
type Counters struct {
	// Levels holds cumulative latency per attribution bucket.
	Levels [NumLevels]sim.Time

	Accesses   uint64 // memory accesses entering the pipeline
	L1Hits     uint64
	Exceptions uint64 // write exceptions raised by the stream cache
	Observes   uint64 // sampler updates (for SRAM energy)

	// Host-runtime (epoch boundary) tallies.
	Reconfigs       int
	ReconfigKept    int
	ReconfigDropped int
	ReplicatedRows  uint64 // last epoch's replicated rows
	RowsAllocated   uint64 // last epoch's total allocation
	SamplerCovered  int    // streams covered by samplers, last epoch

	// Degraded-mode (fault injection) tallies.
	DegradedEpochs       int // epochs that began with a fault active
	FaultRemappedStreams int // streams remapped off failed vaults
}

// Add accumulates latency d into level l.
func (c *Counters) Add(l Level, d sim.Time) { c.Levels[l] += d }
