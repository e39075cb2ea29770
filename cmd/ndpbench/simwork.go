package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ndpext/internal/server/result"
	"ndpext/internal/stats"
	"ndpext/internal/system"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

// cell is one design × workload simulation of a simulation workload.
type cell struct {
	design   system.Design
	workload string
	replay   bool // replay from an NDPTRC file through system.RunSource
}

func (c cell) String() string { return c.design.String() + "/" + c.workload }

// The simulation workloads are chosen by which layer does the work, so
// that each epoch-runtime or memory-path optimisation has one workload
// that exercises it and one that bypasses it (README.md).
var (
	// The paper's design as users run it: the sampler, the per-epoch
	// max-flow/Algorithm 1 solve and the bandit work here and in no
	// other stream workload.
	streamReconfigCells = []cell{
		{system.NDPExt, "pr", false},
		{system.NDPExt, "recsys", false},
		{system.NDPExtMAB, "phased", false},
	}
	// The same traces on the same stream-cache memory path with the
	// sampler, policy and bandit idle; recsys streams from a recorded
	// trace file, exercising the streaming input path.
	streamStaticCells = []cell{
		{system.NDPExtStatic, "pr", false},
		{system.NDPExtStatic, "recsys", true},
		{system.NDPExtStatic, "phased", false},
	}
	// The NUCA controller's metadata cache and map-heavy placement plus
	// the sampler; policy and bandit idle, stream-cache code nearly so.
	nucaCells = []cell{
		{system.Jigsaw, "mv", false},
		{system.Nexus, "mv", false},
	}
)

// simInputs are a simulation workload's generated inputs.
type simInputs struct {
	traces   map[string]*workloads.Trace // materialized workloads
	readers  map[string]*trace.Reader    // workloads replayed from NDPTRC files
	genMS    float64
	recordMS float64
}

func (in *simInputs) close() {
	for _, r := range in.readers {
		r.Close()
	}
}

// accesses is the access total of a cell's input.
func (in *simInputs) accesses(c cell) uint64 {
	if c.replay {
		return in.readers[c.workload].Accesses()
	}
	return uint64(in.traces[c.workload].TotalAccesses())
}

// setupSim generates each workload the cells use once, and records the
// replayed ones into NDPTRC files under scratch.
func setupSim(o runOpts, scratch string, cells []cell, t *tracer) (*simInputs, error) {
	units := system.DefaultConfig(system.NDPExt).NumUnits()
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = o.size.accessesPerCore
	sc.Mult = o.size.mult
	in := &simInputs{traces: map[string]*workloads.Trace{}, readers: map[string]*trace.Reader{}}
	materialized := map[string]bool{}
	for _, c := range cells {
		materialized[c.workload] = materialized[c.workload] || !c.replay
	}
	for _, c := range cells {
		if in.traces[c.workload] != nil || in.readers[c.workload] != nil {
			continue
		}
		gen, err := workloads.Get(c.workload)
		if err != nil {
			return in, err
		}
		start := time.Now()
		id := t.begin("workloads.gen", c.workload, 0)
		tr, err := gen(units, o.seed, sc)
		t.end(id)
		in.genMS += msSince(start)
		if err != nil {
			return in, err
		}
		if materialized[c.workload] {
			in.traces[c.workload] = tr
		}
		if !c.replay {
			continue
		}
		path := filepath.Join(scratch, c.workload+".ndptrc")
		start = time.Now()
		id = t.begin("trace.SaveFile", c.workload, 0)
		err = trace.SaveFile(path, tr)
		t.end(id)
		in.recordMS += msSince(start)
		if err != nil {
			return in, err
		}
		id = t.begin("trace.OpenFile", c.workload, 0)
		r, err := trace.OpenFile(path)
		t.end(id)
		if err != nil {
			return in, err
		}
		in.readers[c.workload] = r
	}
	return in, nil
}

// runCell simulates one cell and returns the result with the time the
// system.Run* call took.
func runCell(in *simInputs, c cell, seed uint64, pipelined bool, onEpoch func(system.EpochInfo)) (*system.Result, time.Duration, error) {
	cfg := system.DefaultConfig(c.design)
	cfg.BanditSeed = seed
	cfg.OnEpoch = onEpoch
	if c.replay {
		src, err := in.readers[c.workload].Source()
		if err != nil {
			return nil, 0, err
		}
		run := system.RunSource
		if pipelined {
			run = system.RunSourcePipelined
		}
		start := time.Now()
		res, err := run(cfg, src)
		return res, time.Since(start), err
	}
	tr := in.traces[c.workload].Clone() // a run mutates its stream table
	run := system.Run
	if pipelined {
		run = system.RunPipelined
	}
	start := time.Now()
	res, err := run(cfg, tr)
	return res, time.Since(start), err
}

// checkCell verifies one simulation: it ran to completion over every
// access of its input, L1 hits, cache hits and cache misses partition the
// accesses, and its canonical document hashes to ref (which the first
// checked run of the cell sets).
func checkCell(ref *[sha256.Size]byte, res *system.Result, err error, want uint64) error {
	if err != nil {
		return err
	}
	if res.Truncated {
		return fmt.Errorf("run truncated: %s", res.TruncateReason)
	}
	if res.Accesses != want {
		return fmt.Errorf("simulated %d accesses, input has %d", res.Accesses, want)
	}
	if got := res.L1Hits + res.CacheHits + res.CacheMisses; got != res.Accesses {
		return fmt.Errorf("L1 hits %d + cache hits %d + misses %d = %d, want %d accesses",
			res.L1Hits, res.CacheHits, res.CacheMisses, got, res.Accesses)
	}
	doc, err := result.Encode(res)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(doc)
	switch {
	case *ref == [sha256.Size]byte{}:
		*ref = sum
	case sum != *ref:
		return errors.New("canonical document differs from the first serial run")
	}
	return nil
}

// runSim runs a simulation workload: set-up repeated for setup_s, timed
// serial passes over every cell for o.seconds, one pipelined pass whose
// documents must match the serial ones, and with o.trace a traced pass.
func runSim(o runOpts, cells []cell) *report {
	r := newReport()
	scratch, err := os.MkdirTemp(o.dir, "scratch-")
	if err != nil {
		return r.abort("setup", err)
	}
	defer os.RemoveAll(scratch)
	var t *tracer
	if o.trace {
		t = newTracer()
	}

	var in *simInputs
	var setupS, genMS, recordMS []float64
	setupStart := time.Now()
	for rep := 0; rep < o.size.setupReps || (time.Since(setupStart) < o.size.setupMin && rep < maxSetupReps); rep++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC() // drop the previous set-up's inputs outside the timing
		}
		start := time.Now()
		in, err = setupSim(o, scratch, cells, t)
		if err != nil {
			in.close()
			return r.abort("setup", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		genMS = append(genMS, in.genMS)
		recordMS = append(recordMS, in.recordMS)
	}
	defer in.close()
	r.metrics["setup_s"] = median(setupS)
	r.metrics["workloads.gen_ms"] = median(genMS)
	r.metrics["trace.record_ms"] = median(recordMS)
	var total float64
	for _, c := range cells {
		total += float64(in.accesses(c))
	}

	refs := make([][sha256.Size]byte, len(cells))
	first := make([]*system.Result, len(cells))
	cellMS := make([][]float64, len(cells))
	var passMS []float64
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	for pass := 0; pass < o.size.minPasses || time.Since(start) < o.seconds; pass++ {
		var d time.Duration
		for i, c := range cells {
			res, cd, err := runCell(in, c, o.seed, false, nil)
			d += cd
			cellMS[i] = append(cellMS[i], ms(cd))
			r.op(c.String(), checkCell(&refs[i], res, err, in.accesses(c)))
			if pass == 0 {
				first[i] = res
			}
		}
		passMS = append(passMS, ms(d))
	}
	runtime.ReadMemStats(&mem1)
	r.passes = len(passMS)
	medPass := median(passMS)
	// Throughput takes each cell's fastest run. The simulator is
	// deterministic, and other tenants of a shared host only ever add
	// time: on a 2-vCPU VM whose memory-bound speed drifted by ±15% over
	// minutes, the fastest of a window's runs spread half as much across
	// windows as their median. Latency is what a user waits for the
	// workload's simulations, so it takes every pass. It is a pass, not a
	// single run: the cells' times differ, so a median over single runs
	// would follow one cell's noise.
	var bestPass float64
	for _, xs := range cellMS {
		lo, _ := minMax(xs)
		bestPass += lo
	}
	r.metrics["ops_per_s"] = total / (bestPass / 1e3)
	r.metrics["host_ns_per_access"] = bestPass * 1e6 / total
	r.metrics["latency_ms_p50"] = medPass
	r.metrics["latency.samples"] = float64(len(passMS))
	r.metrics["host.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	modelMetrics(r, first)

	var pipeMS float64
	for i, c := range cells {
		res, d, err := runCell(in, c, o.seed, true, nil)
		pipeMS += ms(d)
		r.op(c.String()+" pipelined", checkCell(&refs[i], res, err, in.accesses(c)))
	}
	r.metrics["parallel.pipeline_speedup"] = medPass / pipeMS

	if o.trace {
		tracedSimPass(o, r, t, in, cells, refs, medPass, total)
	}
	r.metrics["peak_rss_mb"] = peakRSSMB()
	return r
}

// tracedSimPass measures trace decoding, then runs every cell once more
// under a CPU profile with epoch spans, and writes the spans and the
// profile to o.dir.
func tracedSimPass(o runOpts, r *report, t *tracer, in *simInputs, cells []cell, refs [][sha256.Size]byte, medPass, total float64) {
	var decoded float64
	var decodeNS int64
	for name, rd := range in.readers {
		id := t.begin("trace.Source.drain", name, 0)
		start := time.Now()
		n, err := drain(rd)
		decodeNS += time.Since(start).Nanoseconds()
		t.end(id)
		decoded += float64(n)
		r.op("drain "+name, err)
	}
	if decoded > 0 {
		r.metrics["trace.decode_ns_per_access"] = float64(decodeNS) / decoded
	}

	var gaps []float64
	var passMS float64
	results := make([]*system.Result, len(cells))
	errs := make([]error, len(cells))
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	passSpan := t.begin("pass", "", 0)
	prof, cpu, err := profileCPU(func() {
		for i, c := range cells {
			name := "system.Run"
			if c.replay {
				name = "system.RunSource"
			}
			cellSpan := t.begin(name, c.String(), passSpan)
			last := time.Now()
			onEpoch := func(system.EpochInfo) {
				now := time.Now()
				t.record("system.OnEpoch", c.String(), cellSpan, last, now)
				gaps = append(gaps, ms(now.Sub(last)))
				last = now
			}
			var d time.Duration
			results[i], d, errs[i] = runCell(in, c, o.seed, false, onEpoch)
			t.end(cellSpan)
			passMS += ms(d)
		}
	})
	t.end(passSpan)
	runtime.ReadMemStats(&mem1)
	// Checked after the profile, so the check's encoding and hashing do
	// not count toward the layers.
	for i, c := range cells {
		r.op(c.String()+" traced", checkCell(&refs[i], results[i], errs[i], in.accesses(c)))
	}
	if err != nil {
		r.op("profile", err)
		return
	}
	epochs := float64(len(gaps))
	r.metrics["tracing_overhead_pct"] = (passMS/medPass - 1) * 100
	r.metrics["host.alloc_bytes_per_access"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / total
	r.metrics["system.epochs"] = epochs
	r.metrics["system.epoch_gap_ms_p50"] = median(gaps)
	r.op("profile", attributeCPU(r, prof, cpu, total, epochs, passMS))
	r.op("write trace", writeTraceFiles(o, t, prof))
}

// drain reads every access of a recorded trace without simulating.
func drain(rd *trace.Reader) (uint64, error) {
	src, err := rd.Source()
	if err != nil {
		return 0, err
	}
	var n uint64
	for c := 0; c < src.Cores(); c++ {
		for {
			if _, ok := src.Next(c); !ok {
				break
			}
			n++
		}
	}
	if err := src.Err(); err != nil {
		return n, err
	}
	if n != rd.Accesses() {
		return n, fmt.Errorf("drained %d accesses, header says %d", n, rd.Accesses())
	}
	return n, nil
}

// modelMetrics derives the simulated machine's numbers from one serial
// pass; they are deterministic for a seed.
func modelMetrics(r *report, results []*system.Result) {
	var bd stats.Breakdown
	var l1, hits, misses, slbHits, slbAll, metaHits, metaAll, kept, dropped, makespanUS float64
	var switches, modeledNS, postL1NS, postL1 float64
	for _, res := range results {
		if res == nil {
			continue // its failure is already counted
		}
		bd.Add(res.Breakdown)
		l1 += float64(res.L1Hits)
		hits += float64(res.CacheHits)
		misses += float64(res.CacheMisses)
		kept += float64(res.ReconfigKept)
		dropped += float64(res.ReconfigDropped)
		makespanUS += res.Time.NS() / 1e3
		m := res.Metrics()
		slbHits += float64(m.Uint("streamcache.slb_hits"))
		slbAll += float64(m.Uint("streamcache.slb_hits") + m.Uint("streamcache.slb_misses"))
		metaHits += float64(m.Uint("nuca.meta_hits"))
		metaAll += float64(m.Uint("nuca.meta_hits") + m.Uint("nuca.meta_misses"))
		if res.Design == system.NDPExtMAB {
			n := float64(res.Accesses - res.L1Hits)
			switches += float64(res.AdaptSwitches)
			modeledNS += m.Float("adapt.modeled_amat_ns") * n
			postL1NS += (res.Breakdown.Total() - res.Breakdown.Core).NS()
			postL1 += n
		}
	}
	acc := float64(bd.Accesses)
	r.metrics["sim_makespan_us"] = makespanUS
	r.metrics["sim_amat_ns"] = bd.AvgAccessNS()
	r.metrics["model.l1_hit_rate"] = ratio(l1, acc)
	r.metrics["model.cache_hit_rate"] = ratio(hits, hits+misses)
	r.metrics["model.slb_hit_rate"] = ratio(slbHits, slbAll)
	r.metrics["model.meta_hit_rate"] = ratio(metaHits, metaAll)
	r.metrics["model.meta_ns_per_access"] = ratio(bd.Meta.NS(), acc)
	r.metrics["model.noc_ns_per_access"] = ratio((bd.IntraNoC + bd.InterNoC).NS(), acc)
	r.metrics["model.dram_ns_per_access"] = ratio(bd.CacheDRAM.NS(), acc)
	r.metrics["model.ext_ns_per_access"] = ratio(bd.Extended.NS(), acc)
	r.metrics["model.reconfig_drop_frac"] = ratio(dropped, kept+dropped)
	r.metrics["adapt.switches"] = switches
	if realized := ratio(postL1NS, postL1); realized > 0 {
		// The bandit's cost-model estimate against the post-L1 latency the
		// simulator realized on the same accesses.
		r.metrics["adapt.model_error_pct"] = math.Abs(modeledNS/postL1-realized) / realized * 100
	}
}

// attributeCPU turns a traced pass's CPU profile into the host.* and
// serve.cpu_share.* metrics: each layer's share of the samples times the
// CPU time the pass took. epochs may be 0 when the pass did not count
// them; the per-epoch metrics then stay 0.
func attributeCPU(r *report, prof []byte, cpu time.Duration, accesses, epochs, wallMS float64) error {
	byPkg, err := cpuByPackage(prof)
	if err != nil {
		return err
	}
	layers := map[string]float64{}
	shares := map[string]float64{}
	var sampled float64
	for pkg, v := range byPkg {
		layers[layerOf(pkg)] += float64(v)
		shares[shareOf(pkg)] += float64(v)
		sampled += float64(v)
	}
	if sampled == 0 {
		return errors.New("profile holds no samples")
	}
	cpuNS := float64(cpu.Nanoseconds())
	for _, l := range hostLayers {
		layers[l] *= cpuNS / sampled
		r.metrics["host."+l+"_ns_per_access"] = ratio(layers[l], accesses)
	}
	for _, s := range serveShares {
		r.metrics["serve.cpu_share."+s] = shares[s] / sampled
	}
	r.metrics["host.cpu_ns_per_access"] = ratio(cpuNS, accesses)
	r.metrics["host.cpu_pct"] = ratio(cpuNS, wallMS*1e6) * 100
	if epochs > 0 {
		r.metrics["host.policy_ms_per_epoch"] = layers["policy"] / 1e6 / epochs
		r.metrics["host.adapt_ms_per_epoch"] = layers["adapt"] / 1e6 / epochs
	}
	return nil
}

// writeTraceFiles writes the traced pass's spans (JSONL) and CPU profile
// (for go tool pprof) to o.dir.
func writeTraceFiles(o runOpts, t *tracer, prof []byte) error {
	base := filepath.Join(o.dir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := t.writeJSONL(base + ".spans.jsonl"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
