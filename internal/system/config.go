// Package system assembles the full NDP-with-extended-memory machine of
// the paper's Table II and runs trace-driven, cycle-approximate
// simulations of it under the different cache management designs: NDPExt
// (the paper's proposal), NDPExt-static, the NUCA baselines (Jigsaw,
// Whirlpool, Nexus, static interleaving), and the non-NDP host processor.
//
// Capacities are the paper's divided by the constant CapacityDivisor, so
// that runs complete in seconds while footprints keep the same ratio to
// cache capacity; timing and energy constants are the paper's own.
package system

import (
	"fmt"
	"strings"

	"ndpext/internal/adapt"
	"ndpext/internal/cxl"
	"ndpext/internal/dram"
	"ndpext/internal/fault"
	"ndpext/internal/noc"
	"ndpext/internal/sampler"
	"ndpext/internal/sim"
	"ndpext/internal/streamcache"
	"ndpext/internal/telemetry"
)

// Design selects the cache management scheme under evaluation.
type Design int

const (
	// NDPExt is the paper's proposal: stream cache + configuration
	// algorithm with per-stream replication.
	NDPExt Design = iota
	// NDPExtStatic is NDPExt without runtime reconfiguration: equal
	// static allocation per stream (§VI).
	NDPExtStatic
	// Nexus, Whirlpool, Jigsaw and StaticInterleave are the cacheline
	// NUCA baselines adapted to the DRAM cache (§VI).
	Nexus
	Whirlpool
	Jigsaw
	StaticInterleave
	// Host is the non-NDP 64-core host processor with a Jigsaw-style
	// LLC and DDR5 main memory, the Fig. 5 normalization baseline.
	Host
	// NDPExtMAB is the adaptive extension (internal/adapt): NDPExt's
	// machinery, but the epoch configuration is chosen by a seeded
	// Thompson-sampling bandit over shadow-evaluated candidate policies.
	// Appended after Host so the earlier designs keep their canonical
	// serialization values.
	NDPExtMAB
)

// String returns the design name used in the paper's figures.
func (d Design) String() string {
	switch d {
	case NDPExt:
		return "NDPExt"
	case NDPExtStatic:
		return "NDPExt-static"
	case Nexus:
		return "Nexus"
	case Whirlpool:
		return "Whirlpool"
	case Jigsaw:
		return "Jigsaw"
	case StaticInterleave:
		return "Static"
	case Host:
		return "Host"
	case NDPExtMAB:
		return "NDPExt-MAB"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// NDPDesigns lists the designs that run on the NDP system, in the order
// the paper's Fig. 5 plots them.
func NDPDesigns() []Design {
	return []Design{StaticInterleave, Jigsaw, Whirlpool, Nexus, NDPExtStatic, NDPExt}
}

// AllDesigns lists every registered design: the Fig. 5 NDP rows, the
// host baseline, and the adaptive extension. This is the design
// universe of ParseDesign and `ndpsim -list-designs`.
func AllDesigns() []Design {
	return append(NDPDesigns(), Host, NDPExtMAB)
}

// DesignNames returns the String names of all registered designs.
func DesignNames() []string {
	ds := AllDesigns()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// UnknownDesignError reports a design name that matched nothing,
// carrying the valid names so callers (the CLI, the serving API's 422
// response) can list them instead of making users guess.
type UnknownDesignError struct {
	Name  string
	Valid []string
}

func (e *UnknownDesignError) Error() string {
	return fmt.Sprintf("system: unknown design %q (valid: %s)", e.Name, strings.Join(e.Valid, ", "))
}

// ParseDesign parses a design by its String name, case-insensitively
// (the form used by the CLI flags and the serving API). An unmatched
// name yields an *UnknownDesignError listing the valid designs.
func ParseDesign(s string) (Design, error) {
	for _, d := range AllDesigns() {
		if strings.EqualFold(d.String(), s) {
			return d, nil
		}
	}
	return 0, &UnknownDesignError{Name: s, Valid: DesignNames()}
}

// ParseReconfigMode parses "full", "partial", or "static".
func ParseReconfigMode(s string) (ReconfigMode, error) {
	switch strings.ToLower(s) {
	case "full":
		return ReconfigFull, nil
	case "partial":
		return ReconfigPartial, nil
	case "static":
		return ReconfigStatic, nil
	default:
		return 0, fmt.Errorf("system: unknown reconfig mode %q", s)
	}
}

// ReconfigMode selects the Fig. 9(e) reconfiguration method.
type ReconfigMode int

const (
	// ReconfigFull reconfigures every epoch (NDPExt's default).
	ReconfigFull ReconfigMode = iota
	// ReconfigPartial reconfigures only during the first PartialEpochs
	// epochs, then freezes.
	ReconfigPartial
	// ReconfigStatic never reconfigures after the initial equal split.
	ReconfigStatic
)

// CapacityDivisor scales the paper's capacities down to model scale:
// per-unit DRAM cache 256 MB -> 256 kB, affine cap 16 MB -> 16 kB,
// host LLC 32 MB -> 32 kB. Footprints in internal/workloads are scaled
// to match, so footprint:cache ratios track the paper's setup.
const CapacityDivisor = 1024

// Config describes one simulated machine.
type Config struct {
	Design Design

	Mem dram.Params // NDP stack memory technology (HBM3 or HMC2)
	NoC noc.Config
	CXL cxl.Config

	CoreFreqMHz float64
	L1Bytes     int
	L1Assoc     int
	L1LineBytes int
	L1LatCycles int64

	UnitRows     uint32 // DRAM cache rows per NDP unit
	BanksPerUnit int

	// NDPExt knobs (Fig. 9 design studies).
	Stream         streamcache.Params
	Sampler        sampler.Config
	EpochCycles    int64
	Reconfig       ReconfigMode
	PartialEpochs  int
	ConsistentHash bool

	SLBLatCycles      int64
	SLBMissPenalty    sim.Time // host remap-table walk + refill
	MetaLatCycles     int64    // baseline metadata-cache lookup
	WriteExceptionLat sim.Time // host exception on first write (§IV-B)

	// Host baseline knobs.
	HostCores    int
	HostLLCBytes int
	HostLLCAssoc int
	HostLLCLat   int64 // cycles
	HostNoCLat   int64 // cycles per LLC access for routing

	CoreStaticMW float64 // per NDP core static power

	// OnEpoch, when set, is called at every epoch boundary with a
	// summary of what the host runtime did -- an observability hook for
	// library users tuning policies. Nil (the default) costs nothing.
	OnEpoch func(EpochInfo)

	// Probe, when set, receives a telemetry.Event for every simulated
	// memory access (core, stream, level served, per-level latency).
	// Wrap with telemetry.Sampled to subsample; nil costs nothing.
	Probe telemetry.Probe

	// Adapt tunes the NDPExt-MAB design's bandit-driven configurator
	// (arm set, migration model, posterior decay); zero value = the
	// adapt package defaults. Ignored by every other design.
	Adapt adapt.Params
	// BanditSeed seeds the NDPExt-MAB Thompson sampler's RNG substream;
	// 0 falls back to Seed. Part of CanonicalBytes: two runs with
	// different bandit seeds may install different configurations and
	// must never share a cache entry.
	BanditSeed uint64

	// Faults selects the fault models injected into the memory path
	// (see internal/fault). Empty (the default) disables injection and
	// leaves every simulated result bit-identical to a fault-free build.
	Faults fault.Spec
	// FaultSeed seeds the injector's RNG substream; 0 falls back to Seed.
	FaultSeed uint64

	// MaxCycles aborts a run deterministically once simulated time
	// passes that many core cycles, flushing partial results with
	// Result.Truncated set. Zero disables. A wall-clock limit is a
	// deadline on the run's context, never a config field.
	MaxCycles int64

	Seed uint64
}

// AttachProbe adds p to the configuration's probe chain. Unlike
// assigning Config.Probe directly — which silently replaces whatever
// sink was installed before — AttachProbe composes via
// telemetry.Multi, so a sampled JSONL emitter and a full-rate trace
// recorder (or any number of other sinks) all observe the same run.
// Attaching nil is a no-op.
func (c *Config) AttachProbe(p telemetry.Probe) {
	c.Probe = telemetry.Multi(c.Probe, p)
}

// EpochInfo summarizes one host-runtime epoch for Config.OnEpoch.
type EpochInfo struct {
	Epoch         int
	ActiveStreams int // streams accessed this epoch
	Reconfigured  bool
	ItemsKept     int // survived reconfiguration in place
	ItemsDropped  int // invalidated by reconfiguration
	// SamplerCovered counts the streams whose samplers observed the
	// epoch just closed: those the previous boundary's max-flow
	// reassignment covered (0 at the first boundary, whose samplers were
	// the initial placement).
	SamplerCovered int

	// NDPExt-MAB fields: the live arm chosen for the next epoch and
	// whether this boundary switched arms (empty/false otherwise).
	Arm         string
	ArmSwitched bool

	// Degraded-mode fields (fault injection).
	Degraded        bool // a vault failure or link degradation was active
	FailedUnits     int  // vaults offline at this boundary
	RemappedStreams int  // streams remapped off failed vaults this epoch

	// Counters is a snapshot of the run's hot-path counters at this
	// boundary — a plain value safe to hand to other goroutines (the
	// serving layer streams it as live progress). Its cache hits and
	// misses are the controller's counts, so L1 hits + cache hits +
	// cache misses = accesses, with or without faults.
	Counters telemetry.Snapshot
}

// DefaultConfig returns the Table II machine at model scale with the
// given design, HBM3-style NDP memory, and the paper's default NDPExt
// parameters.
func DefaultConfig(d Design) Config {
	rowBytes := 2048
	unitRows := uint32(256 << 20 / CapacityDivisor / rowBytes)
	sp := streamcache.DefaultParams()
	sp.RowBytes = rowBytes
	sp.AffineCapBytes /= CapacityDivisor
	unitBytes := int64(unitRows) * int64(rowBytes)
	sc := sampler.DefaultConfig(unitBytes)
	sc.MinBytes = 4 << 10
	// At model scale a stream's footprint can span several units (in the
	// paper one unit's 256 MB dwarfs any stream), so the monitored
	// capacity range must cover multi-unit group sizes.
	sc.MaxBytes = 8 * unitBytes

	return Config{
		Design: d,
		Mem:    dram.HBM3(),
		NoC:    noc.DefaultConfig(),
		CXL:    cxl.DefaultConfig(),

		CoreFreqMHz: 2000,
		L1Bytes:     2048,
		L1Assoc:     4,
		L1LineBytes: 64,
		L1LatCycles: 2,

		UnitRows:     unitRows,
		BanksPerUnit: 8,

		Stream:         sp,
		Sampler:        sc,
		EpochCycles:    600_000, // 50 M cycles, scaled with the capacities
		Reconfig:       ReconfigFull,
		PartialEpochs:  2,
		ConsistentHash: true,

		SLBLatCycles:      2,
		SLBMissPenalty:    sim.FromNS(300),
		MetaLatCycles:     2,
		WriteExceptionLat: sim.Microsecond,

		HostCores:    64,
		HostLLCBytes: 32 << 20 / CapacityDivisor,
		HostLLCAssoc: 16,
		HostLLCLat:   9,
		HostNoCLat:   3,

		CoreStaticMW: 15,

		Seed: 1,
	}
}

// HMCConfig is DefaultConfig with HMC2-style stack memory (Fig. 5(b)).
func HMCConfig(d Design) Config {
	c := DefaultConfig(d)
	c.Mem = dram.HMC2()
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.NoC.Validate(); err != nil {
		return err
	}
	if err := c.CXL.Validate(); err != nil {
		return err
	}
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	if err := c.Sampler.Validate(); err != nil {
		return err
	}
	if c.UnitRows == 0 || c.BanksPerUnit <= 0 {
		return fmt.Errorf("system: invalid unit geometry")
	}
	if c.CoreFreqMHz <= 0 {
		return fmt.Errorf("system: invalid core frequency")
	}
	if c.L1Bytes <= 0 || c.L1LineBytes <= 0 || c.L1Assoc <= 0 {
		return fmt.Errorf("system: invalid L1 geometry")
	}
	if c.Stream.RowBytes != c.rowBytes() {
		return fmt.Errorf("system: stream cache row size %d disagrees with %d", c.Stream.RowBytes, c.rowBytes())
	}
	if err := c.Faults.Validate(c.NumUnits()); err != nil {
		return err
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("system: cycle budget must be non-negative")
	}
	if c.Design == Host && c.HostCores < 1 {
		return fmt.Errorf("system: Host design needs HostCores >= 1, got %d", c.HostCores)
	}
	if c.Design == NDPExtMAB {
		if err := c.Adapt.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// rowBytes is the DRAM cache allocation granule.
func (c Config) rowBytes() int { return c.Stream.RowBytes }

// NumUnits returns the NDP unit (and core) count.
func (c Config) NumUnits() int { return c.NoC.NumUnits() }

// UnitCacheBytes returns the per-unit DRAM cache capacity.
func (c Config) UnitCacheBytes() int64 {
	return int64(c.UnitRows) * int64(c.rowBytes())
}
