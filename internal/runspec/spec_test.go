package runspec

import "testing"

func TestSpecNormalizeAndKey(t *testing.T) {
	def := Spec{Workload: "pr"}.Normalize()
	want := Spec{Workload: "pr", Design: "NDPExt", Mem: "hbm", Seed: 1,
		Accesses: 30000, Scale: 1, Reconfig: "full", FaultSeed: 1, BanditSeed: 1}
	if def != want {
		t.Errorf("Normalize() = %+v, want %+v", def, want)
	}

	// An omitted field and its explicit default must address the same
	// cache entry.
	keyOf := func(js Spec) string {
		t.Helper()
		js = js.Normalize()
		cfg, err := js.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		return js.Key(cfg, "").String()
	}
	if keyOf(Spec{Workload: "pr"}) != keyOf(want) {
		t.Error("defaulted and explicit specs hash differently")
	}
	if keyOf(Spec{Workload: "pr", Mem: "HMC"}) != keyOf(Spec{Workload: "pr", Mem: "hmc"}) {
		t.Error("mem HMC and hmc hash differently")
	}
	base := keyOf(Spec{Workload: "pr"})
	for name, js := range map[string]Spec{
		"workload":  {Workload: "bfs"},
		"design":    {Workload: "pr", Design: "Nexus"},
		"mem":       {Workload: "pr", Mem: "hmc"},
		"seed":      {Workload: "pr", Seed: 2},
		"accesses":  {Workload: "pr", Accesses: 40000},
		"scale":     {Workload: "pr", Scale: 2},
		"reconfig":  {Workload: "pr", Reconfig: "partial"},
		"epoch":     {Workload: "pr", EpochCycles: 123456},
		"faults":    {Workload: "pr", Faults: "cxl-retry,rate=0.01"},
		"faultseed": {Workload: "pr", FaultSeed: 9},
		"maxcycles": {Workload: "pr", MaxCycles: 5_000_000},
	} {
		if keyOf(js) == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}
