package bench

import (
	"errors"
	"fmt"
	"time"

	"ndpext/internal/cxl"
	"ndpext/internal/fault"
	"ndpext/internal/maxflow"
	"ndpext/internal/sim"
	"ndpext/internal/stats"
	"ndpext/internal/system"
)

// Fig5 reproduces Fig. 5: overall performance of every NDP design across
// the workloads, normalized to the non-NDP host. hmc selects the
// Fig. 5(b) HMC-style machine. The returned summary maps design ->
// geomean speedup over the host, plus NDPExt's geomean speedup over
// Nexus (the paper's headline 1.41x/1.48x).
func Fig5(hmc bool, opt Options) (Table, map[string]float64, float64, error) {
	mk := func(d system.Design) system.Config {
		if hmc {
			return system.HMCConfig(d)
		}
		return system.DefaultConfig(d)
	}
	designs := []system.Design{system.Jigsaw, system.Whirlpool, system.Nexus, system.NDPExtStatic, system.NDPExt}
	title := "Fig 5(a): overall performance, HBM-style NDP (speedup over host)"
	if hmc {
		title = "Fig 5(b): overall performance, HMC-style NDP (speedup over host)"
	}
	tbl := Table{Title: title, Columns: []string{"workload"}}
	for _, d := range designs {
		tbl.Columns = append(tbl.Columns, d.String())
	}

	// One matrix row per workload: the host run plus every NDP design.
	var cells []Cell
	for _, w := range opt.Workloads {
		cells = append(cells, Cell{Config: mk(system.Host), Workload: w})
		for _, d := range designs {
			cells = append(cells, Cell{Config: mk(d), Workload: w})
		}
	}
	results, err := RunCells(cells, opt)
	// A failed or panicked row becomes a FAILED cell in the table (and
	// drops out of the geomeans) instead of killing the whole figure.
	var be *BatchError
	if err != nil && !errors.As(err, &be) {
		return tbl, nil, 0, err
	}

	perDesign := map[string][]float64{}
	var ndpextVsNexus []float64
	stride := 1 + len(designs)
	for wi, w := range opt.Workloads {
		host := results[wi*stride]
		if host == nil {
			tbl.Rows = append(tbl.Rows, []string{w, "host " + be.failText(wi*stride)})
			continue
		}
		row := []string{w}
		var nexusT, ndpextT sim.Time
		for di, d := range designs {
			res := results[wi*stride+1+di]
			if res == nil {
				row = append(row, be.failText(wi*stride+1+di))
				continue
			}
			sp := float64(host.Time) / float64(res.Time)
			perDesign[d.String()] = append(perDesign[d.String()], sp)
			row = append(row, f2(sp))
			switch d {
			case system.Nexus:
				nexusT = res.Time
			case system.NDPExt:
				ndpextT = res.Time
			}
		}
		if nexusT > 0 && ndpextT > 0 {
			ndpextVsNexus = append(ndpextVsNexus, float64(nexusT)/float64(ndpextT))
		}
		tbl.Rows = append(tbl.Rows, row)
	}

	geo := map[string]float64{}
	row := []string{"geomean"}
	for _, d := range designs {
		geo[d.String()] = stats.Geomean(perDesign[d.String()])
		row = append(row, f2(geo[d.String()]))
	}
	tbl.Rows = append(tbl.Rows, row)
	vsNexus := stats.Geomean(ndpextVsNexus)
	tbl.Rows = append(tbl.Rows, []string{"NDPExt/Nexus", f2(vsNexus)})
	return tbl, geo, vsNexus, nil
}

// Fig2 reproduces Fig. 2(a): the access latency breakdown of a PageRank
// run under static cacheline interleaving on the NDP system vs the
// host-style NUCA system, highlighting the NDP system's interconnect
// share and higher hit rate.
func Fig2(opt Options) (Table, error) {
	tbl := Table{
		Title:   "Fig 2(a): latency breakdown, static interleaving (pr)",
		Columns: []string{"system", "core", "meta", "intra-noc", "inter-noc", "dram", "extended", "hit-rate"},
	}
	results, err := RunCells([]Cell{
		{Config: system.DefaultConfig(system.StaticInterleave), Workload: "pr"},
		{Config: system.DefaultConfig(system.Host), Workload: "pr"},
	}, opt)
	if err != nil {
		return tbl, err
	}
	rowOf := func(name string, r *system.Result) []string {
		f := r.Breakdown.Fractions()
		return []string{
			name, pct(f["core"]), pct(f["meta"]), pct(f["intra-noc"]),
			pct(f["inter-noc"]), pct(f["dram"]), pct(f["extended"]),
			pct(r.CacheHitRate()),
		}
	}
	tbl.Rows = append(tbl.Rows, rowOf("NDP", results[0]), rowOf("NUCA-host", results[1]))
	return tbl, nil
}

// Fig4b reproduces Fig. 4(b): host-side execution time of the max-flow
// sampler assignment as the stream count grows (paper: <0.5 ms at 512
// streams). Returns the measured time per stream count.
func Fig4b() (Table, map[int]time.Duration) {
	tbl := Table{
		Title:   "Fig 4(b): sampler assignment time vs stream count",
		Columns: []string{"streams", "time"},
	}
	const units, samplersPerUnit = 128, 4
	rng := sim.NewRNG(42)
	out := map[int]time.Duration{}
	for _, streams := range []int{64, 128, 256, 512} {
		accessedBy := make([][]int, streams)
		for s := range accessedBy {
			k := 1 + rng.Intn(8)
			seen := map[int]bool{}
			for i := 0; i < k; i++ {
				seen[rng.Intn(units)] = true
			}
			for u := range seen {
				accessedBy[s] = append(accessedBy[s], u)
			}
		}
		start := time.Now()
		const reps = 10
		for i := 0; i < reps; i++ {
			maxflow.AssignSamplers(units, accessedBy, samplersPerUnit)
		}
		d := time.Since(start) / reps
		out[streams] = d
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprint(streams), d.String()})
	}
	return tbl, out
}

// Fig6 reproduces Fig. 6: energy breakdown of NDPExt vs Nexus per
// workload (paper: NDPExt saves 40.3% on average). Returns the geomean
// total-energy ratio Nexus/NDPExt.
func Fig6(opt Options) (Table, float64, error) {
	tbl := Table{
		Title:   "Fig 6: energy, NDPExt vs Nexus (uJ; ratio = Nexus/NDPExt)",
		Columns: []string{"workload", "design", "static", "ndp-dram", "ext-dram", "noc", "cxl", "sram", "total", "ratio"},
	}
	var cells []Cell
	for _, w := range opt.Workloads {
		cells = append(cells, Cell{Config: system.DefaultConfig(system.Nexus), Workload: w})
		cells = append(cells, Cell{Config: system.DefaultConfig(system.NDPExt), Workload: w})
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, 0, err
	}
	var ratios []float64
	for wi, w := range opt.Workloads {
		nx, nd := results[2*wi], results[2*wi+1]
		ratio := nx.Energy.Total() / nd.Energy.Total()
		ratios = append(ratios, ratio)
		const uJ = 1e6
		rowOf := func(design string, e, ratio string, r *system.Result) []string {
			return []string{w, design,
				f1(r.Energy.StaticPJ / uJ), f1(r.Energy.NDPDramPJ / uJ),
				f1(r.Energy.ExtDramPJ / uJ), f1(r.Energy.NoCPJ / uJ),
				f1(r.Energy.CXLLinkPJ / uJ), f1(r.Energy.SRAMPJ / uJ),
				f1(r.Energy.Total() / uJ), ratio}
		}
		tbl.Rows = append(tbl.Rows, rowOf("Nexus", "", "", nx))
		tbl.Rows = append(tbl.Rows, rowOf("NDPExt", "", f2(ratio), nd))
	}
	geo := stats.Geomean(ratios)
	tbl.Rows = append(tbl.Rows, []string{"geomean", "", "", "", "", "", "", "", "", f2(geo)})
	return tbl, geo, nil
}

// Fig7 reproduces Fig. 7: average interconnect latency and miss rate for
// Nexus vs NDPExt across representative workloads.
func Fig7(opt Options) (Table, error) {
	tbl := Table{
		Title:   "Fig 7: interconnect latency (ns/access) and miss rate",
		Columns: []string{"workload", "nexus-ns", "ndpext-ns", "nexus-miss", "ndpext-miss"},
	}
	var cells []Cell
	for _, w := range opt.Workloads {
		cells = append(cells, Cell{Config: system.DefaultConfig(system.Nexus), Workload: w})
		cells = append(cells, Cell{Config: system.DefaultConfig(system.NDPExt), Workload: w})
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, err
	}
	for wi, w := range opt.Workloads {
		nx, nd := results[2*wi], results[2*wi+1]
		tbl.Rows = append(tbl.Rows, []string{w,
			f1(nx.AvgInterconnectNS()), f1(nd.AvgInterconnectNS()),
			pct(nx.MissRate()), pct(nd.MissRate())})
	}
	return tbl, nil
}

// fig8aVariant describes one Fig. 8(a) machine shape.
type fig8aVariant struct {
	label            string
	stacksX, stacksY int
	unitsX, unitsY   int
}

func (v fig8aVariant) String() string { return v.label }

// Fig8a reproduces Fig. 8(a): NDPExt speedup over Nexus across NDP core
// counts and stack arrangements.
func Fig8a(opt Options) (Table, map[string]float64, error) {
	variants := []fig8aVariant{
		{"2x64 (128 cores)", 2, 1, 8, 8},
		{"8x16 (128 cores)", 4, 2, 4, 4},
		{"16x8 (128 cores)", 4, 4, 4, 2},
		{"2x16 (32 cores)", 2, 1, 4, 4},
		{"4x16 (64 cores)", 2, 2, 4, 4},
		{"16x16 (256 cores)", 4, 4, 4, 4},
	}
	tbl, geo, err := ndpextOverNexus("Fig 8(a): NDPExt speedup over Nexus vs core count (stacks x cores/stack)",
		[]string{"machine", "speedup"}, variants,
		func(v fig8aVariant, d system.Design) system.Config {
			cfg := system.DefaultConfig(d)
			cfg.NoC.StacksX, cfg.NoC.StacksY = v.stacksX, v.stacksY
			cfg.NoC.UnitsX, cfg.NoC.UnitsY = v.unitsX, v.unitsY
			return cfg
		}, opt)
	if err != nil {
		return tbl, nil, err
	}
	out := map[string]float64{}
	for v, g := range geo {
		out[v.label] = g
	}
	return tbl, out, nil
}

// Fig8b reproduces Fig. 8(b): NDPExt speedup over Nexus across CXL link
// latencies (paper: 1.33x at 50 ns to 1.50x at 400 ns).
func Fig8b(opt Options) (Table, map[int]float64, error) {
	return ndpextOverNexus("Fig 8(b): NDPExt speedup over Nexus vs CXL link latency",
		[]string{"latency-ns", "speedup"}, []int{50, 100, 200, 400},
		func(ns int, d system.Design) system.Config {
			cfg := system.DefaultConfig(d)
			cfg.CXL.LinkLatency = sim.FromNS(float64(ns))
			return cfg
		}, opt)
}

// ndpextOverNexus runs Nexus and NDPExt on the Fig. 8 workloads at each
// sweep point and reports NDPExt's geomean speedup over Nexus per point.
func ndpextOverNexus[P comparable](title string, columns []string, points []P,
	mk func(p P, d system.Design) system.Config, opt Options) (Table, map[P]float64, error) {

	opt = sweepSubset(opt, "recsys", "pr", "mv", "hotspot")
	tbl := Table{Title: title, Columns: columns}
	var cells []Cell
	for _, p := range points {
		for _, w := range opt.Workloads {
			cells = append(cells, Cell{Config: mk(p, system.Nexus), Workload: w})
			cells = append(cells, Cell{Config: mk(p, system.NDPExt), Workload: w})
		}
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, nil, err
	}
	out := map[P]float64{}
	i := 0
	for _, p := range points {
		var sps []float64
		for range opt.Workloads {
			nx, nd := results[i], results[i+1]
			i += 2
			sps = append(sps, float64(nx.Time)/float64(nd.Time))
		}
		out[p] = stats.Geomean(sps)
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprint(p), f2(out[p])})
	}
	return tbl, out, nil
}

// ndpextSweep runs NDPExt over a config mutation sweep and reports each
// point's total run time over opt's workloads as a speedup over ref's.
func ndpextSweep[P comparable](title string, columns []string, points []P, ref P,
	mutate func(cfg *system.Config, p P), opt Options) (Table, map[P]float64, error) {

	tbl := Table{Title: title, Columns: columns}
	var cells []Cell
	for _, p := range points {
		for _, w := range opt.Workloads {
			cfg := system.DefaultConfig(system.NDPExt)
			mutate(&cfg, p)
			cells = append(cells, Cell{Config: cfg, Workload: w})
		}
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, nil, err
	}
	times := map[P]float64{}
	for i, res := range results {
		times[points[i/len(opt.Workloads)]] += float64(res.Time)
	}
	out := map[P]float64{}
	for _, p := range points {
		out[p] = times[ref] / times[p]
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprint(p), f2(out[p])})
	}
	return tbl, out, nil
}

// Fig9a: indirect stream cache associativity (paper: direct-mapped is
// acceptable; graphs gain 10-20% at 64 ways).
func Fig9a(opt Options) (Table, map[int]float64, error) {
	opt = sweepSubset(opt, "pr", "cc", "recsys") // graphs gain the most (paper)
	return ndpextSweep("Fig 9(a): indirect cache associativity", []string{"ways", "speedup-vs-default"},
		[]int{1, 4, 16, 64}, 1,
		func(cfg *system.Config, v int) { cfg.Stream.IndirectWays = v }, opt)
}

// Fig9b: affine stream block size (paper default 1 kB).
func Fig9b(opt Options) (Table, map[int]float64, error) {
	opt = sweepSubset(opt, "mv", "hotspot", "pathfinder")
	return ndpextSweep("Fig 9(b): affine block size (bytes)", []string{"block", "speedup-vs-default"},
		[]int{256, 512, 1024, 2048}, 1024,
		func(cfg *system.Config, v int) { cfg.Stream.BlockBytes = v }, opt)
}

// Fig9c: affine space restriction (scaled; paper 16 MB -> 16 kB here,
// with a near-unlimited point standing in for the ideal case).
func Fig9c(opt Options) (Table, map[int]float64, error) {
	opt = sweepSubset(opt, "mv", "gnn") // the paper's affine-heavy pair
	return ndpextSweep("Fig 9(c): affine space restriction (bytes/unit, scaled)", []string{"cap", "speedup-vs-default"},
		[]int{4 << 10, 8 << 10, 16 << 10, 64 << 10, 1 << 20}, 16<<10,
		func(cfg *system.Config, v int) { cfg.Stream.AffineCapBytes = v }, opt)
}

// Fig9d: miss-curve sampler sets k (paper: insensitive).
func Fig9d(opt Options) (Table, map[int]float64, error) {
	opt = sweepSubset(opt, "recsys", "pr")
	return ndpextSweep("Fig 9(d): sampler sets k", []string{"k", "speedup-vs-default"},
		[]int{8, 16, 32, 64}, 32,
		func(cfg *system.Config, v int) { cfg.Sampler.SampleSets = v }, opt)
}

// Fig9e: reconfiguration method S(tatic)/P(artial)/F(ull).
func Fig9e(opt Options) (Table, map[string]float64, error) {
	tbl := Table{
		Title:   "Fig 9(e): reconfiguration method (speedup vs Full)",
		Columns: append([]string{"workload"}, "Static", "Partial", "Full"),
	}
	opt = sweepSubset(opt, "mv", "pr") // the paper highlights this pair
	modes := []struct {
		name string
		mode system.ReconfigMode
	}{
		{"Static", system.ReconfigStatic},
		{"Partial", system.ReconfigPartial},
		{"Full", system.ReconfigFull},
	}
	var cells []Cell
	for _, w := range opt.Workloads {
		for _, m := range modes {
			cfg := system.DefaultConfig(system.NDPExt)
			cfg.Reconfig = m.mode
			cells = append(cells, Cell{Config: cfg, Workload: w})
		}
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, nil, err
	}
	out := map[string]float64{}
	sums := map[string]float64{}
	i := 0
	for _, w := range opt.Workloads {
		times := map[string]float64{}
		for _, m := range modes {
			times[m.name] = float64(results[i].Time)
			sums[m.name] += float64(results[i].Time)
			i++
		}
		tbl.Rows = append(tbl.Rows, []string{w,
			f2(times["Full"] / times["Static"]),
			f2(times["Full"] / times["Partial"]),
			"1.00"})
	}
	for _, m := range modes {
		out[m.name] = sums["Full"] / sums[m.name]
	}
	tbl.Rows = append(tbl.Rows, []string{"overall",
		f2(out["Static"]), f2(out["Partial"]), "1.00"})
	return tbl, out, nil
}

// Fig9f: reconfiguration interval (paper: 50 M cycles is enough; 100 M
// costs 26%).
func Fig9f(opt Options) (Table, map[int]float64, error) {
	opt = sweepSubset(opt, "recsys", "pr", "mv")
	base := int(system.DefaultConfig(system.NDPExt).EpochCycles)
	return ndpextSweep("Fig 9(f): reconfiguration interval (cycles)", []string{"epoch", "speedup-vs-default"},
		[]int{base / 4, base / 2, base, base * 2, base * 4}, base,
		func(cfg *system.Config, v int) { cfg.EpochCycles = int64(v) }, opt)
}

// SecVD quantifies §V-D: consistent hashing vs bulk invalidation during
// reconfiguration (paper: 9.4% less invalidation traffic, 3.7% speedup).
func SecVD(opt Options) (Table, float64, float64, error) {
	opt = sweepSubset(opt, "recsys", "pr", "mv", "hotspot")
	tbl := Table{
		Title:   "SecV-D: consistent hashing vs bulk invalidation",
		Columns: []string{"workload", "speedup", "invalidation-reduction"},
	}
	var cells []Cell
	for _, w := range opt.Workloads {
		cons := system.DefaultConfig(system.NDPExt)
		cons.ConsistentHash = true
		bulk := system.DefaultConfig(system.NDPExt)
		bulk.ConsistentHash = false
		cells = append(cells, Cell{Config: cons, Workload: w}, Cell{Config: bulk, Workload: w})
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, 0, 0, err
	}
	var sps, invs []float64
	for wi, w := range opt.Workloads {
		rc, rb := results[2*wi], results[2*wi+1]
		sp := float64(rb.Time) / float64(rc.Time)
		inv := 0.0
		if rb.ReconfigDropped > 0 {
			inv = 1 - float64(rc.ReconfigDropped)/float64(rb.ReconfigDropped)
		}
		sps = append(sps, sp)
		invs = append(invs, inv)
		tbl.Rows = append(tbl.Rows, []string{w, f2(sp), pct(inv)})
	}
	sp := stats.Geomean(sps)
	inv := stats.Mean(invs)
	tbl.Rows = append(tbl.Rows, []string{"overall", f2(sp), pct(inv)})
	return tbl, sp, inv, nil
}

// AblationExtAttach compares the extended-memory attach technologies the
// paper discusses in SecIII-A: CXL (the proposal), directly-attached
// DIMMs (lower latency, fewer channels/pins), and relaying through the
// host processor (highest latency). NDPExt runs on each.
func AblationExtAttach(opt Options) (Table, map[string]float64, error) {
	opt = sweepSubset(opt, "recsys", "pr", "mv")
	attaches := map[string]cxl.Config{
		"cxl":        cxl.DefaultConfig(),
		"dimm":       cxl.DIMMConfig(),
		"host-relay": cxl.HostRelayConfig(),
	}
	return ndpextSweep("Ablation (SecIII-A): extended-memory attach technology (speedup vs CXL)",
		[]string{"attach", "speedup"}, []string{"cxl", "dimm", "host-relay"}, "cxl",
		func(cfg *system.Config, at string) { cfg.CXL = attaches[at] }, opt)
}

// AblationWayPredict compares the indirect-cache organizations of
// SecIV-C: direct-mapped (the proposal), idealized N-way (Fig. 9a's
// experiment), and realistic way-predicted N-way (the CAMEO/Unison-style
// alternative, paying a second DRAM access per misprediction).
func AblationWayPredict(opt Options) (Table, map[string]float64, error) {
	opt = sweepSubset(opt, "recsys", "pr")
	organizations := map[string]struct {
		ways    int
		predict bool
	}{
		"direct-mapped":       {1, false},
		"4-way ideal":         {4, false},
		"4-way way-predicted": {4, true},
	}
	return ndpextSweep("Ablation (SecIV-C): indirect cache organization (speedup vs direct-mapped)",
		[]string{"organization", "speedup"},
		[]string{"direct-mapped", "4-way ideal", "4-way way-predicted"}, "direct-mapped",
		func(cfg *system.Config, org string) {
			cfg.Stream.IndirectWays = organizations[org].ways
			cfg.Stream.WayPredict = organizations[org].predict
		}, opt)
}

// MetaHitRates reports the baselines' metadata cache hit rates per
// workload (§VII-A: >95% for high-locality workloads, 47% for large
// graphs).
func MetaHitRates(opt Options) (Table, error) {
	tbl := Table{
		Title:   "SecVII-A: baseline metadata cache hit rate (Nexus)",
		Columns: []string{"workload", "meta-hit-rate"},
	}
	var cells []Cell
	for _, w := range opt.Workloads {
		cells = append(cells, Cell{Config: system.DefaultConfig(system.Nexus), Workload: w})
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, err
	}
	for wi, w := range opt.Workloads {
		tbl.Rows = append(tbl.Rows, []string{w, pct(results[wi].MetaHitRate)})
	}
	return tbl, nil
}

// FaultSweep answers the robustness question raised by the fault model:
// how much of NDPExt's advantage survives a lossy CXL fabric? Each
// regime injects a deterministic fault pattern (internal/fault) into
// NDPExt and Nexus on one representative workload and reports the
// slowdown versus that design's healthy run, plus the injector's
// telemetry tallies (retries on the CXL link, accesses redirected off a
// failed vault, streams remapped at epoch boundaries).
func FaultSweep(opt Options) (Table, error) {
	opt = sweepSubset(opt, "pr")
	opt.Workloads = opt.Workloads[:1]
	w := opt.Workloads[0]
	tbl := Table{
		Title:   fmt.Sprintf("Degraded-mode sweep (%s): slowdown vs healthy under injected faults", w),
		Columns: []string{"regime", "design", "slowdown", "retries", "redirects", "remapped", "degraded-epochs"},
	}
	regimes := []struct {
		name string
		spec string
	}{
		{"healthy", ""},
		{"flit-retry", "cxl-retry,rate=0.05,lat=200ns"},
		{"link-degrade", "cxl-degrade,at=0,factor=4"},
		{"vault-fail", "vault-fail,unit=5,at=300us"},
		{"lossy-fabric", "cxl-retry,rate=0.05,lat=200ns;cxl-degrade,at=0,factor=4;vault-fail,unit=5,at=300us"},
	}
	designs := []system.Design{system.NDPExt, system.Nexus}
	var cells []Cell
	for _, rg := range regimes {
		spec, err := fault.Parse(rg.spec)
		if err != nil {
			return tbl, fmt.Errorf("regime %s: %w", rg.name, err)
		}
		for _, d := range designs {
			cfg := system.DefaultConfig(d)
			cfg.Faults = spec
			cfg.FaultSeed = 1
			cells = append(cells, Cell{Config: cfg, Workload: w})
		}
	}
	results, err := RunCells(cells, opt)
	if err != nil {
		return tbl, err
	}
	healthy := map[system.Design]sim.Time{}
	for di, d := range designs {
		healthy[d] = results[di].Time
	}
	for ri, rg := range regimes {
		for di, d := range designs {
			res := results[ri*len(designs)+di]
			row := []string{rg.name, d.String(), f2(float64(res.Time) / float64(healthy[d]))}
			if m := res.Metrics(); m != nil {
				row = append(row,
					fmt.Sprintf("%d", m.Uint("fault.retries")),
					fmt.Sprintf("%d", m.Uint("fault.vault_redirects")),
					fmt.Sprintf("%d", m.Uint("fault.remapped_streams")),
					fmt.Sprintf("%d", m.Uint("fault.degraded_epochs")))
			} else {
				row = append(row, "-", "-", "-", "-")
			}
			tbl.Rows = append(tbl.Rows, row)
		}
	}
	return tbl, nil
}
