package system

import (
	"math/rand/v2"
	"testing"

	"ndpext/internal/stream"
	"ndpext/internal/telemetry"
	"ndpext/internal/workloads"
)

// Metamorphic invariant tests: properties that must hold for ANY
// configuration, so a hot-path optimization that silently perturbs the
// accounting trips them even on configurations the golden suite does not
// pin. They complement internal/golden (exact values on a fixed matrix)
// with relations (conservation laws, proportionality) on a randomized
// matrix.

// levelCounter tallies how many accesses each pipeline level served.
type levelCounter struct {
	total    uint64
	byServed [telemetry.NumLevels]uint64
}

func (c *levelCounter) Record(ev *telemetry.Event) {
	c.total++
	c.byServed[ev.Served]++
}

// traceFor generates a trace for the small 8-core machine.
func traceFor(t *testing.T, name string, seed uint64, sc workloads.Scale) *workloads.Trace {
	t.Helper()
	gen, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen(8, seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkConservation asserts the access accounting conservation laws on a
// finished run observed through probe counts:
//
//	probe events        == Result.Accesses   (every access is observed)
//	served at the core  == L1 hits
//	cache + extended    == post-L1 accesses  (nothing vanishes, nothing is
//	                                          double-served)
//	Result.CacheMisses  <= served-extended   (bypass/redirect accesses go
//	                                          extended without a miss)
func checkConservation(t *testing.T, label string, res *Result, lc *levelCounter) {
	t.Helper()
	if lc.total != res.Accesses {
		t.Errorf("%s: probe saw %d accesses, Result.Accesses = %d", label, lc.total, res.Accesses)
	}
	if got := lc.byServed[telemetry.LevelCore]; got != res.L1Hits {
		t.Errorf("%s: served-at-core %d != L1Hits %d", label, got, res.L1Hits)
	}
	postL1 := res.Accesses - res.L1Hits
	cache := lc.byServed[telemetry.LevelCacheDRAM]
	ext := lc.byServed[telemetry.LevelExtended]
	if cache+ext != postL1 {
		t.Errorf("%s: cache-served %d + extended-served %d != post-L1 %d",
			label, cache, ext, postL1)
	}
	if res.CacheMisses > ext {
		t.Errorf("%s: CacheMisses %d > served-extended %d", label, res.CacheMisses, ext)
	}
	if res.CacheHits+res.CacheMisses > postL1 {
		t.Errorf("%s: hits %d + misses %d > post-L1 accesses %d",
			label, res.CacheHits, res.CacheMisses, postL1)
	}
}

// checkEnergy asserts the energy breakdown is a true decomposition: the
// total equals the explicit sum of every component (guards against a new
// component being added but dropped from Total) and no component is
// negative.
func checkEnergy(t *testing.T, label string, res *Result) {
	t.Helper()
	e := res.Energy
	sum := e.StaticPJ + e.NDPDramPJ + e.ExtDramPJ + e.NoCPJ + e.CXLLinkPJ + e.SRAMPJ
	if got := e.Total(); got != sum {
		t.Errorf("%s: Energy.Total() = %g, component sum = %g", label, got, sum)
	}
	for name, v := range map[string]float64{
		"static": e.StaticPJ, "ndpDram": e.NDPDramPJ, "extDram": e.ExtDramPJ,
		"noc": e.NoCPJ, "cxl": e.CXLLinkPJ, "sram": e.SRAMPJ,
	} {
		if v < 0 {
			t.Errorf("%s: negative %s energy %g", label, name, v)
		}
	}
	// The Host baseline carries no energy model (it is the normalization
	// denominator); for NDP designs a finished run must burn static power.
	if res.Time > 0 && e.Total() > 0 && e.StaticPJ <= 0 {
		t.Errorf("%s: run took %v but static energy is %g", label, res.Time, e.StaticPJ)
	}
}

// TestMetamorphicAccessScaling doubles a workload's access budget and
// demands the served-access counters scale proportionally: the trace
// generator soft-bounds per-core length, so the total must land within a
// tight band of 2x, and the conservation laws must hold at both scales.
func TestMetamorphicAccessScaling(t *testing.T) {
	sc := workloads.TinyScale()
	sc.CoresPerProc = 4
	sc.AccessesPerCore = 2000
	sc2 := sc
	sc2.AccessesPerCore = 4000

	for _, wl := range []string{"pr", "mv", "backprop"} {
		run := func(s workloads.Scale) (*Result, *levelCounter) {
			t.Helper()
			lc := &levelCounter{}
			cfg := smallConfig(NDPExt)
			cfg.Probe = lc
			res, err := Run(cfg, traceFor(t, wl, 42, s))
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			return res, lc
		}
		r1, lc1 := run(sc)
		r2, lc2 := run(sc2)
		checkConservation(t, wl+"/1x", r1, lc1)
		checkConservation(t, wl+"/2x", r2, lc2)

		ratio := float64(r2.Accesses) / float64(r1.Accesses)
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("%s: doubling AccessesPerCore scaled accesses %d -> %d (ratio %.2f, want ~2)",
				wl, r1.Accesses, r2.Accesses, ratio)
		}
		// The longer trace is a superset of work: it can never serve
		// FEWER post-L1 accesses (for cache-friendly kernels the extra
		// accesses may all hit L1, so equality is legitimate).
		post1 := r1.Accesses - r1.L1Hits
		post2 := r2.Accesses - r2.L1Hits
		if post2 < post1 {
			t.Errorf("%s: post-L1 accesses shrank with a longer trace (%d -> %d)", wl, post1, post2)
		}
	}
}

// TestMetamorphicZeroCapacityDegradesToExtended starves the stream cache
// down to a single row per unit: with effectively no cache capacity the
// design must degrade to the extended-memory path, not invent hits.
func TestMetamorphicZeroCapacityDegradesToExtended(t *testing.T) {
	tr := tinyTrace(t, "pr")

	starved := smallConfig(NDPExt)
	starved.UnitRows = 1 // one 2 kB row per unit: effectively zero capacity
	starved.Sampler.MaxBytes = 8 * starved.UnitCacheBytes()
	lcS := &levelCounter{}
	starved.Probe = lcS
	resS, err := Run(starved, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "starved", resS, lcS)

	healthy := smallConfig(NDPExt)
	lcH := &levelCounter{}
	healthy.Probe = lcH
	resH, err := Run(healthy, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "healthy", resH, lcH)

	// Starving capacity must push traffic to extended memory, never pull
	// it: the starved run sends strictly more accesses off-device and
	// hits strictly less often than the healthy run.
	extS := lcS.byServed[telemetry.LevelExtended]
	extH := lcH.byServed[telemetry.LevelExtended]
	if extH >= extS {
		t.Errorf("starved cache sent %d accesses to extended memory, healthy sent %d (want starved > healthy)", extS, extH)
	}
	if resH.CacheHitRate() <= resS.CacheHitRate() {
		t.Errorf("healthy hit rate %.3f not above starved %.3f",
			resH.CacheHitRate(), resS.CacheHitRate())
	}
}

// TestMetamorphicBypassAllExtended runs a trace whose accesses belong to
// no annotated stream: with nothing for the stream cache to hold, every
// post-L1 access must bypass to extended memory and the cache counters
// must stay at zero — the limiting case of the starvation test above.
func TestMetamorphicBypassAllExtended(t *testing.T) {
	cfg := smallConfig(NDPExt)
	lc := &levelCounter{}
	cfg.Probe = lc

	cores := cfg.NumUnits()
	tr := &workloads.Trace{Name: "bypass", Table: stream.NewTable(), PerCore: make([][]workloads.Access, cores)}
	rng := rand.New(rand.NewPCG(9, 9))
	for c := 0; c < cores; c++ {
		accs := make([]workloads.Access, 2000)
		for i := range accs {
			// A wide random address range defeats the tiny L1 so most
			// accesses actually exercise the bypass path.
			accs[i] = workloads.Access{Addr: rng.Uint64N(1 << 30), Gap: uint8(i % 7)}
		}
		tr.PerCore[c] = accs
	}

	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "bypass", res, lc)
	postL1 := res.Accesses - res.L1Hits
	if ext := lc.byServed[telemetry.LevelExtended]; ext != postL1 {
		t.Errorf("served-extended %d != post-L1 %d: bypass accesses leaked into the cache path", ext, postL1)
	}
	if res.CacheHits != 0 {
		t.Errorf("stream cache counted %d hits on a stream-free trace", res.CacheHits)
	}
	// Result.CacheMisses counts extended-memory-served requests (misses,
	// no-space, and bypasses — Fig. 7's dot metric), so here it must
	// equal the whole post-L1 load.
	if res.CacheMisses != postL1 {
		t.Errorf("CacheMisses = %d, want %d (every post-L1 access bypasses)", res.CacheMisses, postL1)
	}
}

// TestMetamorphicRandomConfigs runs 20 seeded random configurations
// across designs, workloads, and machine knobs and asserts the
// conservation and energy-decomposition invariants on every one.
func TestMetamorphicRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewPCG(2026, 805))
	designs := NDPDesigns()
	wls := []string{"pr", "mv", "backprop", "hotspot", "bfs"}
	for i := 0; i < 20; i++ {
		d := designs[rng.IntN(len(designs))]
		wl := wls[rng.IntN(len(wls))]
		cfg := smallConfig(d)
		cfg.UnitRows = uint32(16 << rng.IntN(3)) // 16..64 rows per unit
		cfg.Sampler.MaxBytes = 8 * cfg.UnitCacheBytes()
		cfg.EpochCycles = int64(30_000 + rng.IntN(4)*20_000)
		cfg.ConsistentHash = rng.IntN(2) == 0
		cfg.L1Bytes = 1024 << rng.IntN(2)
		cfg.Seed = rng.Uint64()

		sc := workloads.TinyScale()
		sc.CoresPerProc = 4
		sc.AccessesPerCore = 1500
		lc := &levelCounter{}
		cfg.Probe = lc
		res, err := Run(cfg, traceFor(t, wl, rng.Uint64(), sc))
		if err != nil {
			t.Fatalf("config %d (%v/%s): %v", i, d, wl, err)
		}
		label := res.Design.String() + "/" + wl
		checkConservation(t, label, res, lc)
		checkEnergy(t, label, res)
		if res.Accesses == 0 {
			t.Errorf("%s: run served no accesses", label)
		}
		if res.Time <= 0 {
			t.Errorf("%s: non-positive makespan %v", label, res.Time)
		}
	}
}

// TestMetamorphicHostConservation applies the same conservation laws to
// the host baseline, whose path (LLC instead of stream cache) shares the
// telemetry plumbing but none of the NDP code.
func TestMetamorphicHostConservation(t *testing.T) {
	cfg := smallConfig(Host)
	lc := &levelCounter{}
	cfg.Probe = lc
	res, err := Run(cfg, tinyTrace(t, "mv"))
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, "host", res, lc)
	checkEnergy(t, "host", res)
}
