package system

import (
	"testing"

	"ndpext/internal/workloads"
)

func TestHostFoldsWideTraces(t *testing.T) {
	// A 8-core trace on a 2-core host: per-core order must be preserved
	// and every access simulated.
	gen, _ := workloads.Get("mv")
	sc := workloads.TinyScale()
	sc.CoresPerProc = 4
	tr, err := gen(8, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(Host)
	cfg.HostCores = 2
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != uint64(tr.TotalAccesses()) {
		t.Fatalf("folded host simulated %d of %d accesses", res.Accesses, tr.TotalAccesses())
	}
}

func TestHostFewerCoresIsSlower(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	times := map[int]int64{}
	for _, cores := range []int{2, 8} {
		cfg := smallConfig(Host)
		cfg.HostCores = cores
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		times[cores] = int64(res.Time)
	}
	if times[2] <= times[8] {
		t.Fatalf("2-core host (%d) not slower than 8-core host (%d)", times[2], times[8])
	}
}

func TestHostLLCSizeMatters(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	small := smallConfig(Host)
	small.HostLLCBytes = 4 << 10
	big := smallConfig(Host)
	big.HostLLCBytes = 512 << 10
	rs, err := Run(small, tr)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rb.CacheHitRate() <= rs.CacheHitRate() {
		t.Fatalf("bigger LLC hit rate %.3f not above smaller %.3f",
			rb.CacheHitRate(), rs.CacheHitRate())
	}
	if rb.Time >= rs.Time {
		t.Fatalf("bigger LLC (%v) not faster than smaller (%v)", rb.Time, rs.Time)
	}
}

func TestHostEnergyIsZeroByDesign(t *testing.T) {
	// The host baseline only normalizes performance (Fig. 5); the paper's
	// energy comparison (Fig. 6) is NDPExt vs Nexus, so the host model
	// does not account energy.
	tr := tinyTrace(t, "pr")
	res, err := Run(smallConfig(Host), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Total() != 0 {
		t.Fatalf("host accounted energy %v; it is a performance-only baseline", res.Energy)
	}
}
