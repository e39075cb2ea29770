package bench

import (
	"fmt"
	"sync"

	"ndpext/internal/system"
	"ndpext/internal/workloads"
)

// adaptRegimes are the AdaptSweep rows: the full bandit against each of
// its arms pinned as a single-arm (fixed) configuration policy.
var adaptRegimes = []struct {
	label string
	arms  string // Config.Adapt.Arms; "" = full default arm set
}{
	{"NDPExt-MAB", ""},
	{"fixed/paper", "paper"},
	{"fixed/static", "static"},
	{"fixed/greedy", "greedy"},
	{"fixed/replicate", "replicate"},
}

// adaptMachine is the 8-unit machine the adaptive experiment runs on: a
// small extended-memory system where the phased trace's two halves have
// genuinely opposing optimal arms (on the 128-unit default machine the
// tiny-scale trace fits too comfortably to stress the allocator).
func adaptMachine() system.Config {
	cfg := system.DefaultConfig(system.NDPExtMAB)
	cfg.NoC.StacksX, cfg.NoC.StacksY = 2, 1
	cfg.NoC.UnitsX, cfg.NoC.UnitsY = 2, 2
	cfg.UnitRows = 64 // 128 kB per unit
	cfg.Sampler.MinBytes = 2 << 10
	cfg.Sampler.MaxBytes = 8 * cfg.UnitCacheBytes()
	cfg.EpochCycles = 50_000
	cfg.HostCores = 4
	return cfg
}

// adaptTrace generates the phased workload at the experiment's pinned
// scale. The recipe (workload seed 42, 20 000 accesses per core at tiny
// scale, ~40+ reconfiguration epochs) is pinned rather than derived from
// opt: the bandit needs enough epochs per phase to converge, and the
// result table documents one reproducible experiment, not a sweep.
func adaptTrace() (*workloads.Trace, error) {
	gen, err := workloads.Get("phased")
	if err != nil {
		return nil, err
	}
	sc := workloads.TinyScale()
	sc.AccessesPerCore = 20_000
	return gen(8, 42, sc)
}

// AdaptSweep reproduces the phase-changing adaptive-configuration
// experiment: the phased workload (a dense matrix-vector half followed
// by a sparse PageRank half) runs end-to-end on the NDPExt-MAB design,
// once with the full bandit and once per arm pinned as a fixed policy.
// Because no single arm is optimal across both phases, the bandit's
// modeled AMAT beats every fixed arm. The returned metrics map carries
// mab_amat_ns, best_fixed_amat_ns, and their ratio for the harness.
func AdaptSweep(opt Options) (Table, map[string]float64, error) {
	base, err := adaptTrace()
	if err != nil {
		return Table{}, nil, err
	}
	results := make([]*system.Result, len(adaptRegimes))
	errs := make([]error, len(adaptRegimes))
	var wg sync.WaitGroup
	for i, reg := range adaptRegimes {
		wg.Add(1)
		go func(i int, arms string) {
			defer wg.Done()
			cfg := adaptMachine()
			cfg.Adapt.Arms = arms
			cfg.BanditSeed = 1
			results[i], errs[i] = system.RunContext(opt.context(), cfg, base.Source())
		}(i, reg.arms)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return Table{}, nil, fmt.Errorf("adapt %s: %w", adaptRegimes[i].label, err)
		}
	}

	mabAMAT := results[0].Metrics().Float("adapt.modeled_amat_ns")
	bestFixed := 0.0
	for _, res := range results[1:] {
		if a := res.Metrics().Float("adapt.modeled_amat_ns"); bestFixed == 0 || a < bestFixed {
			bestFixed = a
		}
	}

	tbl := Table{
		Title:   "NDPExt-MAB adaptive configuration (phased workload, 8-unit machine)",
		Columns: []string{"policy", "modeled AMAT (ns)", "vs MAB", "switches", "reconfigs", "sim time (us)"},
	}
	for i, res := range results {
		m := res.Metrics()
		amat := m.Float("adapt.modeled_amat_ns")
		tbl.Rows = append(tbl.Rows, []string{
			adaptRegimes[i].label,
			f2(amat),
			f2(amat / mabAMAT),
			fmt.Sprintf("%d", res.AdaptSwitches),
			fmt.Sprintf("%d", res.Reconfigs),
			f1(res.Time.NS() / 1e3),
		})
	}
	return tbl, map[string]float64{
		"mab_amat_ns":        mabAMAT,
		"best_fixed_amat_ns": bestFixed,
		"mab_vs_best_fixed":  mabAMAT / bestFixed,
	}, nil
}
