package system

import (
	"bytes"
	"testing"
)

// mabConfig is the small 8-unit machine with the adaptive design.
func mabConfig() Config {
	return smallConfig(NDPExtMAB)
}

// TestMABRunsAndReportsTelemetry checks the adaptive design completes,
// reconfigures, and surfaces the adapt.* registry with per-arm
// posteriors.
func TestMABRunsAndReportsTelemetry(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	res, err := Run(mabConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs == 0 {
		t.Fatal("adaptive run never reconfigured")
	}
	if res.AdaptArm == "" {
		t.Fatal("no live arm reported")
	}
	reg := res.Metrics()
	for _, name := range []string{
		"adapt.epochs", "adapt.switches", "adapt.modeled_amat_ns",
		"adapt.migrated_rows", "adapt.arm.paper.mean", "adapt.arm.static.picks",
	} {
		if !reg.Has(name) {
			t.Fatalf("registry missing %q", name)
		}
	}
	if reg.Uint("adapt.epochs") == 0 {
		t.Fatal("adapt.epochs is zero despite reconfigurations")
	}
	if reg.Float("adapt.modeled_amat_ns") <= 0 {
		t.Fatal("modeled AMAT not accumulated")
	}
}

// TestMABPipelinedParity: the epoch worker goroutine must not change a
// single bit of the adaptive design's result against the inline
// reference — the bandit decision runs on the event-loop thread either
// way.
func TestMABPipelinedParity(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	ser, err := runInline(mabConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(mabConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if fp(ser) != fp(par) {
		t.Fatalf("pipelined adaptive run diverged:\n%+v\nvs\n%+v", fp(ser), fp(par))
	}
	if ser.Metrics().String() != par.Metrics().String() {
		t.Fatal("pipelined adaptive run diverged in the metrics registry")
	}
}

// TestMABDeterministicGivenSeed: same config (incl. bandit seed) same
// result; a different bandit seed is allowed to differ and must be
// cache-keyed either way.
func TestMABDeterministicGivenSeed(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	cfg := mabConfig()
	cfg.BanditSeed = 7
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fp(a) != fp(b) {
		t.Fatalf("same bandit seed diverged:\n%+v\nvs\n%+v", fp(a), fp(b))
	}

	other := cfg
	other.BanditSeed = 8
	if bytes.Equal(cfg.CanonicalBytes(), other.CanonicalBytes()) {
		t.Fatal("bandit seed not covered by CanonicalBytes")
	}
	armed := cfg
	armed.Adapt.Arms = "paper,static"
	if bytes.Equal(cfg.CanonicalBytes(), armed.CanonicalBytes()) {
		t.Fatal("arm set not covered by CanonicalBytes")
	}
}

// TestMABOnEpochReportsArm: the OnEpoch hook carries the live arm.
func TestMABOnEpochReportsArm(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	cfg := mabConfig()
	var arms []string
	cfg.OnEpoch = func(ei EpochInfo) {
		if ei.Reconfigured {
			arms = append(arms, ei.Arm)
		}
	}
	if _, err := Run(cfg, tr); err != nil {
		t.Fatal(err)
	}
	if len(arms) == 0 {
		t.Fatal("no reconfiguring epochs observed")
	}
	for _, a := range arms {
		if a == "" {
			t.Fatal("reconfiguring epoch reported empty arm")
		}
	}

	// The plain design must keep the field empty.
	plain := smallConfig(NDPExt)
	plain.OnEpoch = func(ei EpochInfo) {
		if ei.Arm != "" || ei.ArmSwitched {
			t.Errorf("non-adaptive design reported arm %q", ei.Arm)
		}
	}
	if _, err := Run(plain, tr); err != nil {
		t.Fatal(err)
	}
}

// TestMABSingleArmMatchesScoring: restricting the arm set to one arm
// runs that fixed policy through the same machinery (the fixed-arm
// baseline of the EXPERIMENTS sweep) and never switches.
func TestMABSingleArmFixedPolicy(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	cfg := mabConfig()
	cfg.Adapt.Arms = "greedy"
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdaptArm != "greedy" {
		t.Fatalf("live arm = %q, want greedy", res.AdaptArm)
	}
	if res.AdaptSwitches != 0 {
		t.Fatalf("single-arm run switched %d times", res.AdaptSwitches)
	}
}

// TestParseDesignStructuredError: unknown names carry the valid list.
func TestParseDesignStructuredError(t *testing.T) {
	d, err := ParseDesign("ndpext-mab")
	if err != nil || d != NDPExtMAB {
		t.Fatalf("ParseDesign(ndpext-mab) = %v, %v", d, err)
	}
	_, err = ParseDesign("bogus")
	ude, ok := err.(*UnknownDesignError)
	if !ok {
		t.Fatalf("error type %T, want *UnknownDesignError", err)
	}
	if ude.Name != "bogus" || len(ude.Valid) != len(AllDesigns()) {
		t.Fatalf("structured error incomplete: %+v", ude)
	}
	for _, want := range []string{"NDPExt", "Host", "NDPExt-MAB"} {
		found := false
		for _, v := range ude.Valid {
			if v == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("valid list %v missing %s", ude.Valid, want)
		}
	}
}
