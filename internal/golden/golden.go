// Package golden pins the simulator's canonical outputs. Each Case is
// one (design, workload, fault-scenario) configuration of a small
// 8-unit machine; its committed golden file under testdata/ is the
// indented form of the canonical result document (result.Encode)
// the simulation produced when the golden was last regenerated.
//
// The golden test re-runs every case and requires byte-identical
// documents. This is the oracle that gates hot-path refactors: a
// performance change to the event queue, the memory-path stages, or the
// telemetry plumbing must not move a single counter, latency bucket, or
// energy term. Regenerate deliberately with
//
//	go test ./internal/golden -run TestGolden -update
//
// which rewrites testdata/ and prints a field-by-field diff of every
// changed document, so a semantic change is a visible, reviewed event
// instead of a silent drift.
package golden

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"ndpext/internal/fault"
	"ndpext/internal/server/result"
	"ndpext/internal/system"
	"ndpext/internal/workloads"
)

// Case is one pinned simulation configuration.
type Case struct {
	// Name is the golden file stem under testdata/.
	Name string

	Design   system.Design
	Workload string

	// HMC selects HMC2-style stack memory instead of HBM3.
	HMC bool
	// Reconfig overrides the reconfiguration mode (default full).
	Reconfig system.ReconfigMode
	// Faults is a fault-injection spec in the internal/fault grammar;
	// empty disables injection.
	Faults    string
	FaultSeed uint64

	// BanditSeed seeds the NDPExt-MAB Thompson sampler (0 keeps the
	// config default); only meaningful for the adaptive design.
	BanditSeed uint64

	// AccessesPerCore sizes the trace (default 2500, TinyScale's own).
	AccessesPerCore int
	Seed            uint64
}

// Cases returns the pinned matrix: every design family, both memory
// technologies, the reconfiguration modes, and the fault scenarios whose
// arithmetic the paper's figures lean on. Kept small enough that the
// whole suite runs in a few seconds.
func Cases() []Case {
	return []Case{
		// The proposal and its static ablation across workload kinds.
		{Name: "ndpext-pr", Design: system.NDPExt, Workload: "pr"},
		{Name: "ndpext-mv", Design: system.NDPExt, Workload: "mv"},
		{Name: "ndpext-recsys", Design: system.NDPExt, Workload: "recsys"},
		{Name: "ndpext-hotspot", Design: system.NDPExt, Workload: "hotspot"},
		{Name: "ndpext-static-pr", Design: system.NDPExtStatic, Workload: "pr"},

		// The NUCA baselines and the host normalization baseline.
		{Name: "jigsaw-pr", Design: system.Jigsaw, Workload: "pr"},
		{Name: "whirlpool-mv", Design: system.Whirlpool, Workload: "mv"},
		{Name: "nexus-pr", Design: system.Nexus, Workload: "pr"},
		{Name: "static-mv", Design: system.StaticInterleave, Workload: "mv"},
		{Name: "host-pr", Design: system.Host, Workload: "pr"},

		// Alternate memory technology and reconfiguration modes.
		{Name: "ndpext-hmc-pr", Design: system.NDPExt, Workload: "pr", HMC: true},
		{Name: "ndpext-partial-pr", Design: system.NDPExt, Workload: "pr",
			Reconfig: system.ReconfigPartial},

		// The adaptive design: bandit decisions, shadow scoring, and the
		// migration accounting are all pinned, on a steady workload and
		// on the phase-changing trace it exists for.
		{Name: "ndpext-mab-recsys", Design: system.NDPExtMAB, Workload: "recsys",
			BanditSeed: 7},
		{Name: "ndpext-mab-phased", Design: system.NDPExtMAB, Workload: "phased",
			BanditSeed: 7},

		// Fault scenarios: degraded-mode reconfiguration arithmetic.
		{Name: "ndpext-faults-pr", Design: system.NDPExt, Workload: "pr",
			Faults:    "vault-fail,unit=5,at=100us;cxl-retry,rate=0.05,lat=200ns;cxl-degrade,at=200us,dur=100us,factor=4",
			FaultSeed: 7},
		// The stream path's dead-vault redirect. The failure lands
		// mid-epoch (epochs are 25 us apart), so accesses homed on the
		// dead unit are redirected until the next boundary remaps its
		// streams; ndpext-faults-pr fails its unit on a boundary.
		{Name: "ndpext-redirect-pr", Design: system.NDPExt, Workload: "pr",
			Faults: "vault-fail,unit=5,at=110us", FaultSeed: 7},
		{Name: "jigsaw-faults-pr", Design: system.Jigsaw, Workload: "pr",
			Faults: "vault-fail,unit=2,at=150us", FaultSeed: 3},
		// The NUCA degraded path with a CXL slowdown. The factor is not a
		// power of two, so the rounding of the miss penalty Nexus prices
		// its replication degrees with depends on the order of its
		// arithmetic.
		{Name: "nexus-faults-pr", Design: system.Nexus, Workload: "pr",
			Faults:    "vault-fail,unit=6,at=120us;cxl-degrade,at=50us,dur=200us,factor=7",
			FaultSeed: 5},
	}
}

// Config assembles the case's machine: the 8-unit (2 stacks of 2x2)
// model-scale machine the repo's unit tests use, so goldens are cheap to
// re-run on every test invocation.
func (c Case) Config() (system.Config, error) {
	var cfg system.Config
	if c.HMC {
		cfg = system.HMCConfig(c.Design)
	} else {
		cfg = system.DefaultConfig(c.Design)
	}
	cfg.NoC.StacksX, cfg.NoC.StacksY = 2, 1
	cfg.NoC.UnitsX, cfg.NoC.UnitsY = 2, 2
	cfg.UnitRows = 64 // 128 kB per unit
	cfg.Sampler.MinBytes = 2 << 10
	cfg.Sampler.MaxBytes = 8 * cfg.UnitCacheBytes()
	cfg.EpochCycles = 50_000
	cfg.HostCores = 4
	cfg.Reconfig = c.Reconfig
	spec, err := fault.Parse(c.Faults)
	if err != nil {
		return system.Config{}, err
	}
	cfg.Faults = spec
	cfg.FaultSeed = c.FaultSeed
	if c.BanditSeed != 0 {
		cfg.BanditSeed = c.BanditSeed
	}
	if err := cfg.Validate(); err != nil {
		return system.Config{}, err
	}
	return cfg, nil
}

// Trace generates the case's workload trace (TinyScale, 8 cores).
func (c Case) Trace() (*workloads.Trace, error) {
	gen, err := workloads.Get(c.Workload)
	if err != nil {
		return nil, err
	}
	sc := workloads.TinyScale()
	sc.CoresPerProc = 4
	if c.AccessesPerCore > 0 {
		sc.AccessesPerCore = c.AccessesPerCore
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	return gen(8, seed, sc)
}

// Run simulates the case and returns the indented canonical result
// document — the exact bytes the golden files hold.
func (c Case) Run() ([]byte, error) {
	tr, err := c.Trace()
	if err != nil {
		return nil, err
	}
	return c.RunTrace(tr)
}

// RunTrace is Run on a given trace of the case's workload. The run
// leaves tr as it found it.
func (c Case) RunTrace(tr *workloads.Trace) ([]byte, error) {
	cfg, err := c.Config()
	if err != nil {
		return nil, err
	}
	res, err := system.RunContext(context.Background(), cfg, tr.Source())
	if err != nil {
		return nil, err
	}
	doc, err := result.Encode(res)
	if err != nil {
		return nil, err
	}
	return Indent(doc)
}

// Indent pretty-prints a canonical result document. Indentation is
// whitespace-only, so two indented documents are byte-identical exactly
// when the underlying canonical documents are.
func Indent(doc []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, doc, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Diff compares two JSON documents field by field and returns one line
// per difference ("path: old -> new"), recursing into objects and
// arrays. A nil result means the documents are semantically identical.
func Diff(a, b []byte) ([]string, error) {
	var av, bv any
	if err := json.Unmarshal(a, &av); err != nil {
		return nil, fmt.Errorf("golden: old document: %w", err)
	}
	if err := json.Unmarshal(b, &bv); err != nil {
		return nil, fmt.Errorf("golden: new document: %w", err)
	}
	var out []string
	diffValue("", av, bv, &out)
	return out, nil
}

func diffValue(path string, a, b any, out *[]string) {
	if path == "" {
		path = "."
	}
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			*out = append(*out, fmt.Sprintf("%s: %v -> %v", path, render(a), render(b)))
			return
		}
		keys := make(map[string]bool, len(av)+len(bv))
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		for _, k := range sortedKeys(keys) {
			sub := path + "/" + k
			if path == "." {
				sub = k
			}
			va, inA := av[k]
			vb, inB := bv[k]
			switch {
			case !inA:
				*out = append(*out, fmt.Sprintf("%s: (absent) -> %v", sub, render(vb)))
			case !inB:
				*out = append(*out, fmt.Sprintf("%s: %v -> (absent)", sub, render(va)))
			default:
				diffValue(sub, va, vb, out)
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			*out = append(*out, fmt.Sprintf("%s: %v -> %v", path, render(a), render(b)))
			return
		}
		for i := range av {
			diffValue(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], out)
		}
	default:
		if !jsonEqual(a, b) {
			*out = append(*out, fmt.Sprintf("%s: %v -> %v", path, render(a), render(b)))
		}
	}
}

func jsonEqual(a, b any) bool {
	// Scalars only (objects/arrays recurse above): numbers decode as
	// float64, so == is exact for the canonical documents.
	return a == b
}

func render(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	if len(b) > 120 {
		return string(b[:117]) + "..."
	}
	return string(b)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort; tiny key sets
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
