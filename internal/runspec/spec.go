// Package runspec is the one run spec of ndpsim's flags and ndpserve's
// job submissions: both normalize, build, key and generate through it.
package runspec

import (
	"fmt"
	"strings"
	"time"

	"ndpext/internal/fault"
	"ndpext/internal/simcache"
	"ndpext/internal/system"
	"ndpext/internal/workloads"
)

// Spec is one run: which machine to simulate, on which workload, under
// which fault scenario. Zero-valued optional fields take the documented
// defaults, applied by Normalize BEFORE the cache key is computed, so
// "seed omitted" and "seed": 1 address the same cache entry.
type Spec struct {
	// Workload names a generator from internal/workloads (see
	// GET /v1/workloads). Exactly one of Workload and Trace is set.
	Workload string `json:"workload,omitempty"`
	// Trace names a recorded trace file (relative to the server's
	// -trace-dir; path escapes are rejected) to replay instead of a
	// generated workload. Trace jobs stream the file with bounded memory
	// and are cache-keyed by the file's SHA-256 digest, so a re-recorded
	// file with different bytes never collides with stale results.
	Trace string `json:"trace,omitempty"`
	// Design is a system design name: NDPExt, NDPExt-static, Nexus,
	// Whirlpool, Jigsaw, Static, or Host. Default NDPExt.
	Design string `json:"design,omitempty"`
	// Mem picks the NDP stack memory: "hbm" (default) or "hmc", any case.
	Mem string `json:"mem,omitempty"`
	// Seed seeds workload generation (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Accesses is the per-core access budget (default 30000).
	Accesses int `json:"accesses,omitempty"`
	// Scale multiplies workload footprints (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Reconfig is the reconfiguration mode: "full" (default),
	// "partial", or "static".
	Reconfig string `json:"reconfig,omitempty"`
	// EpochCycles overrides the host-runtime epoch length in core
	// cycles (default: the machine's DefaultConfig value).
	EpochCycles int64 `json:"epoch_cycles,omitempty"`
	// Faults is a fault-injection spec in the internal/fault grammar,
	// e.g. "vault-fail,unit=3,at=40us;cxl-retry,rate=0.01".
	Faults string `json:"faults,omitempty"`
	// FaultSeed seeds the fault injector (default 1).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// BanditSeed seeds the NDPExt-MAB design's Thompson sampler
	// (default 1; ignored by every other design). Part of
	// the cache key: different seeds may install different
	// configurations.
	BanditSeed uint64 `json:"bandit_seed,omitempty"`
	// Arms restricts the NDPExt-MAB arm set (comma-separated, e.g.
	// "paper,greedy"; empty = all four arms). A single name runs that
	// fixed policy — the fixed-arm baselines of the adaptive sweep.
	Arms string `json:"arms,omitempty"`
	// MaxCycles aborts the run deterministically after this many
	// simulated core cycles (0: server default).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// MaxWallMS aborts the run after this much wall-clock time
	// (0: server default). Wall-truncated results are never cached.
	MaxWallMS int64 `json:"max_wall_ms,omitempty"`
	// DeadlineMS, when > 0, bounds the run with a context deadline: on
	// expiry the simulation checkpoints and the job lands truncated with
	// its partial result, exactly like a drain cancellation. Unlike
	// MaxWallMS it cancels between events rather than at watchdog
	// checks, and it is NOT part of the cache key — a run finishing
	// under its deadline is byte-identical to one without, and a
	// deadline-truncated result is never cached. A submission that
	// piggybacks on an identical in-flight job rides that job's
	// deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Normalize fills defaults in place; the result is what gets hashed,
// echoed in job status, and simulated.
func (js Spec) Normalize() Spec {
	if js.Design == "" {
		js.Design = system.NDPExt.String()
	}
	if js.Mem == "" {
		js.Mem = "hbm"
	}
	// Generation parameters are meaningless for trace replay; leaving
	// them zero keeps them out of the echoed spec and the cache key.
	if js.Trace == "" {
		if js.Seed == 0 {
			js.Seed = 1
		}
		if js.Accesses == 0 {
			js.Accesses = 30000
		}
		if js.Scale == 0 {
			js.Scale = 1
		}
	}
	if js.Reconfig == "" {
		js.Reconfig = "full"
	}
	if js.FaultSeed == 0 {
		js.FaultSeed = 1
	}
	if js.BanditSeed == 0 {
		js.BanditSeed = 1
	}
	return js
}

// Build validates the spec and assembles the machine configuration, with
// the watchdogs defMaxWall and defMaxCycles where the spec sets none. The
// returned config carries no hooks, so hooks never perturb the cache key.
func (js Spec) Build(defMaxWall time.Duration, defMaxCycles int64) (system.Config, error) {
	d, err := system.ParseDesign(js.Design)
	if err != nil {
		return system.Config{}, err
	}
	var cfg system.Config
	switch strings.ToLower(js.Mem) {
	case "hbm":
		cfg = system.DefaultConfig(d)
	case "hmc":
		cfg = system.HMCConfig(d)
	default:
		return system.Config{}, fmt.Errorf("unknown mem %q (want hbm or hmc)", js.Mem)
	}
	cfg.Reconfig, err = system.ParseReconfigMode(js.Reconfig)
	if err != nil {
		return system.Config{}, err
	}
	if js.EpochCycles < 0 {
		return system.Config{}, fmt.Errorf("epoch_cycles must be >= 0")
	}
	if js.EpochCycles > 0 {
		cfg.EpochCycles = js.EpochCycles
	}
	if js.Trace != "" {
		if js.Workload != "" {
			return system.Config{}, fmt.Errorf("workload and trace are mutually exclusive")
		}
		if js.Seed != 0 || js.Accesses != 0 || js.Scale != 0 {
			return system.Config{}, fmt.Errorf("seed/accesses/scale do not apply to trace replay")
		}
	} else if _, err := workloads.Get(js.Workload); err != nil {
		return system.Config{}, err
	}
	if js.Accesses < 0 || js.Scale < 0 {
		return system.Config{}, fmt.Errorf("accesses and scale must be >= 0")
	}
	// One scale bound for every workload: the largest the graph
	// workloads can build.
	if err := (workloads.Scale{Mult: js.Scale}).CheckGraphs(); err != nil {
		return system.Config{}, err
	}
	if js.DeadlineMS < 0 {
		return system.Config{}, fmt.Errorf("deadline_ms must be >= 0")
	}
	spec, err := fault.Parse(js.Faults)
	if err != nil {
		return system.Config{}, err
	}
	cfg.Faults = spec
	cfg.FaultSeed = js.FaultSeed
	cfg.BanditSeed = js.BanditSeed
	cfg.Adapt.Arms = js.Arms
	if js.Arms != "" && d != system.NDPExtMAB {
		return system.Config{}, fmt.Errorf("arms applies only to the NDPExt-MAB design")
	}
	cfg.MaxWall = defMaxWall
	if js.MaxWallMS > 0 {
		cfg.MaxWall = time.Duration(js.MaxWallMS) * time.Millisecond
	}
	cfg.MaxCycles = defMaxCycles
	if js.MaxCycles > 0 {
		cfg.MaxCycles = js.MaxCycles
	}
	if err := cfg.Validate(); err != nil {
		return system.Config{}, err
	}
	return cfg, nil
}

// WorkloadCanon is the canonical serialization of the workload half of a
// job's inputs; together with Config.CanonicalBytes it fully determines
// the simulated result. Trace jobs pass the file's content digest so
// the canonical form names the bytes, not the mutable file name.
func (js Spec) WorkloadCanon(traceDigest string) []byte {
	if js.Trace != "" {
		return []byte("ndpext-trace/v1|digest=" + traceDigest)
	}
	return []byte(fmt.Sprintf("ndpext-workload/v1|name=%s|seed=%d|accesses=%d|scale=%g",
		js.Workload, js.Seed, js.Accesses, js.Scale))
}

// Key content-addresses the run: SHA-256 over the canonical machine
// config and workload parameters (or the trace content digest).
func (js Spec) Key(cfg system.Config, traceDigest string) simcache.Key {
	return simcache.Sum(cfg.CanonicalBytes(), js.WorkloadCanon(traceDigest))
}

// Generate builds the spec's workload for a machine of cores cores.
func (js Spec) Generate(cores int) (*workloads.Trace, error) {
	gen, err := workloads.Get(js.Workload)
	if err != nil {
		return nil, err
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = js.Accesses
	sc.Mult = js.Scale
	return gen(cores, js.Seed, sc)
}

// Traces caches generated workload traces by what determines them: the
// spec's workload half and the core count. Machine configs that agree on
// both share one trace; a run never mutates its input, so concurrent
// runs may replay one trace at once. Safe for concurrent use.
type Traces struct {
	cache *simcache.Cache[*workloads.Trace]
}

// NewTraces returns a cache holding at most 32 traces.
func NewTraces() *Traces {
	return &Traces{cache: simcache.New[*workloads.Trace](32, 0)}
}

// Get returns the spec's workload generated for cores cores, generating
// it on first use; concurrent callers of one key share one generation.
func (t *Traces) Get(js Spec, cores int) (*workloads.Trace, error) {
	key := simcache.Sum(js.WorkloadCanon(""), []byte(fmt.Sprintf("cores=%d", cores)))
	tr, _, err := t.cache.Do(key, func() (*workloads.Trace, error) {
		return js.Generate(cores)
	})
	return tr, err
}

// Stats reports the cache's activity; a caller that joined an in-flight
// generation counts as both a miss and a dedup.
func (t *Traces) Stats() simcache.Stats { return t.cache.Stats() }
