package system

import (
	"fmt"
	"strings"
	"testing"

	"ndpext/internal/noc"
	"ndpext/internal/workloads"
)

// smallConfig builds an 8-unit machine (2x1 stacks of 2x2 units) sized
// for fast tests.
func smallConfig(d Design) Config {
	cfg := DefaultConfig(d)
	cfg.NoC.StacksX, cfg.NoC.StacksY = 2, 1
	cfg.NoC.UnitsX, cfg.NoC.UnitsY = 2, 2
	cfg.UnitRows = 64 // 128 kB per unit
	cfg.Sampler.MinBytes = 2 << 10
	cfg.Sampler.MaxBytes = 8 * cfg.UnitCacheBytes()
	cfg.EpochCycles = 50_000
	cfg.HostCores = 4 // half the NDP core count, as in the paper's 64 vs 128
	return cfg
}

// tinyTrace generates a tiny trace for the 8-core machine.
func tinyTrace(t *testing.T, name string) *workloads.Trace {
	return tinyTraceSeed(t, name, 42)
}

// tinyTraceSeed is tinyTrace with an explicit generation seed.
func tinyTraceSeed(t *testing.T, name string, seed uint64) *workloads.Trace {
	t.Helper()
	gen, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.TinyScale()
	sc.CoresPerProc = 4
	tr, err := gen(8, seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAllDesignsRunToCompletion(t *testing.T) {
	tr := tinyTrace(t, "pr")
	for _, d := range NDPDesigns() {
		res, err := Run(smallConfig(d), tr)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Time <= 0 {
			t.Fatalf("%v: zero makespan", d)
		}
		if res.Accesses != uint64(tr.TotalAccesses()) {
			t.Fatalf("%v: simulated %d accesses, trace has %d", d, res.Accesses, tr.TotalAccesses())
		}
		if res.Breakdown.Total() <= 0 {
			t.Fatalf("%v: empty latency breakdown", d)
		}
	}
}

func TestHostRuns(t *testing.T) {
	tr := tinyTrace(t, "pr")
	cfg := smallConfig(Host)
	cfg.HostCores = 4
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Accesses != uint64(tr.TotalAccesses()) {
		t.Fatalf("host run wrong: %+v", res)
	}
}

func TestDeterminism(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	a, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.CacheHits != b.CacheHits || a.Energy != b.Energy {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Time, a.CacheHits, b.Time, b.CacheHits)
	}
}

func TestNDPExtReconfigures(t *testing.T) {
	tr := tinyTrace(t, "pr")
	res, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs == 0 {
		t.Fatal("NDPExt never reconfigured; epoch machinery broken")
	}
	if res.SLBHitRate <= 0 {
		t.Fatal("no SLB activity recorded")
	}
}

func TestStaticDesignsDoNotReconfigure(t *testing.T) {
	tr := tinyTrace(t, "pr")
	for _, d := range []Design{NDPExtStatic, StaticInterleave} {
		res, err := Run(smallConfig(d), tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reconfigs != 0 {
			t.Fatalf("%v reconfigured %d times", d, res.Reconfigs)
		}
	}
}

func TestBaselineMetadataActivity(t *testing.T) {
	tr := tinyTrace(t, "pr")
	res, err := Run(smallConfig(Nexus), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MetaHitRate <= 0 || res.MetaHitRate > 1 {
		t.Fatalf("meta hit rate = %v", res.MetaHitRate)
	}
	if res.Breakdown.Meta <= 0 {
		t.Fatal("no metadata time recorded for a baseline")
	}
}

func TestEnergyPositiveAndDecomposed(t *testing.T) {
	tr := tinyTrace(t, "mv")
	res, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Energy
	if e.StaticPJ <= 0 || e.NDPDramPJ <= 0 || e.Total() <= 0 {
		t.Fatalf("energy breakdown implausible: %+v", e)
	}
	if e.CXLLinkPJ <= 0 {
		t.Fatal("no CXL energy despite capacity misses")
	}
}

func TestHitRateBounds(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	for _, d := range NDPDesigns() {
		res, err := Run(smallConfig(d), tr)
		if err != nil {
			t.Fatal(err)
		}
		hr := res.CacheHitRate()
		if hr < 0 || hr > 1 {
			t.Fatalf("%v: hit rate %v", d, hr)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := smallConfig(NDPExt)
	cfg.UnitRows = 0
	if _, err := Run(cfg, tinyTrace(t, "pr")); err == nil {
		t.Fatal("zero rows accepted")
	}
	cfg = smallConfig(NDPExt)
	cfg.CoreFreqMHz = 0
	if _, err := Run(cfg, tinyTrace(t, "pr")); err == nil {
		t.Fatal("zero frequency accepted")
	}
	// Host has no hidden core-count default: zero host cores would hash
	// to a different CanonicalBytes key than any machine it could run.
	cfg = smallConfig(Host)
	cfg.HostCores = 0
	if _, err := Run(cfg, tinyTrace(t, "pr")); err == nil {
		t.Fatal("zero host cores accepted")
	}
	// A fault spec that kills every vault (unit 3 twice, the rest once)
	// leaves degraded mode nowhere to place data: it is rejected up
	// front instead of panicking at the first reconfiguration.
	var clauses []string
	for u := 0; u < 8; u++ {
		clauses = append(clauses, fmt.Sprintf("vault-fail,unit=%d,at=%dus", u, 10+u))
	}
	clauses = append(clauses, "vault-fail,unit=3,at=1us")
	for _, d := range []Design{NDPExt, NDPExtMAB, Jigsaw} {
		cfg = faultConfig(t, d, strings.Join(clauses, ";"))
		if _, err := Run(cfg, tinyTrace(t, "pr")); err == nil || !strings.Contains(err.Error(), "all 8 vaults") {
			t.Fatalf("%v: every vault failed: got %v, want a validation error", d, err)
		}
	}
	// Seven of eight is a valid, if grim, scenario.
	cfg = faultConfig(t, NDPExt, strings.Join(clauses[1:], ";"))
	if err := cfg.Validate(); err != nil {
		t.Fatalf("seven failed vaults rejected: %v", err)
	}
}

func TestTraceCoreMismatchRejected(t *testing.T) {
	gen, _ := workloads.Get("pr")
	tr, err := gen(4, 1, workloads.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// The error names the workload, so a served trace job's failure
	// says which input was the wrong width.
	if _, err := Run(smallConfig(NDPExt), tr); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tr.Name)) {
		t.Fatalf("core/unit mismatch: got %v, want an error naming %q", err, tr.Name)
	}
}

func TestTableIIConfigs(t *testing.T) {
	cfg := DefaultConfig(NDPExt)
	// 4x2 inter-stack mesh, 16 NDP cores per stack, 128 total.
	if cfg.NoC.StacksX != 4 || cfg.NoC.StacksY != 2 || cfg.NoC.UnitsPerStack() != 16 {
		t.Fatalf("topology %dx%d x %d", cfg.NoC.StacksX, cfg.NoC.StacksY, cfg.NoC.UnitsPerStack())
	}
	if cfg.NumUnits() != 128 {
		t.Fatalf("units = %d, want 128", cfg.NumUnits())
	}
	if cfg.CoreFreqMHz != 2000 {
		t.Fatalf("core freq = %v, want 2 GHz", cfg.CoreFreqMHz)
	}
	if cfg.Mem.Name != "HBM3" {
		t.Fatalf("default memory = %s", cfg.Mem.Name)
	}
	if HMCConfig(NDPExt).Mem.Name != "HMC2" {
		t.Fatal("HMCConfig memory wrong")
	}
	// Model scale: 256 MB/unit divided by CapacityDivisor.
	if cfg.UnitCacheBytes()*CapacityDivisor != 256<<20 {
		t.Fatalf("unit cache %d bytes does not scale to 256 MB", cfg.UnitCacheBytes())
	}
	if int64(cfg.Stream.AffineCapBytes)*CapacityDivisor != 16<<20 {
		t.Fatalf("affine cap %d does not scale to 16 MB", cfg.Stream.AffineCapBytes)
	}
}

func TestEyeballComparison(t *testing.T) {
	// Diagnostic: log the relative behaviour of the designs on two
	// contrasting workloads. Always passes; read with -v.
	if testing.Short() {
		t.Skip("diagnostic only")
	}
	for _, name := range []string{"recsys", "pr"} {
		tr := tinyTrace(t, name)
		host, err := Run(smallConfig(Host), tr)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s host: time=%v", name, host.Time)
		for _, d := range NDPDesigns() {
			res, err := Run(smallConfig(d), tr)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s %-14v time=%-12v speedup=%.2f hit=%.2f interNS=%.1f metaHit=%.2f slbHit=%.2f reconf=%d repl=%d",
				name, d, res.Time, float64(host.Time)/float64(res.Time),
				res.CacheHitRate(), res.AvgInterconnectNS(), res.MetaHitRate, res.SLBHitRate,
				res.Reconfigs, res.ReplicatedRows)
		}
	}
}

var _ = noc.Config{} // keep the import for helper extensions
