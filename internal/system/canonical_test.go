package system

import (
	"bytes"
	"testing"

	"ndpext/internal/fault"
	"ndpext/internal/telemetry"
)

func TestCanonicalBytesDeterministic(t *testing.T) {
	a := DefaultConfig(NDPExt).CanonicalBytes()
	b := DefaultConfig(NDPExt).CanonicalBytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical configs serialize differently:\n%s\n%s", a, b)
	}
	if !bytes.HasPrefix(a, []byte(canonicalVersion)) {
		t.Fatalf("canonical bytes not version-tagged: %s", a[:40])
	}
}

// TestCanonicalBytesSensitivity flips one simulation-affecting field at a
// time and requires the serialization to change; hooks must not matter.
func TestCanonicalBytesSensitivity(t *testing.T) {
	base := DefaultConfig(NDPExt).CanonicalBytes()
	mutations := map[string]func(*Config){
		"design":     func(c *Config) { c.Design = Jigsaw },
		"mem":        func(c *Config) { c.Mem.TCAS++ },
		"noc":        func(c *Config) { c.NoC.InterGBps *= 2 },
		"cxl":        func(c *Config) { c.CXL.Channels++ },
		"l1":         func(c *Config) { c.L1Bytes *= 2 },
		"unit-rows":  func(c *Config) { c.UnitRows++ },
		"stream":     func(c *Config) { c.Stream.IndirectWays = 4 },
		"sampler":    func(c *Config) { c.Sampler.SampleSets = 16 },
		"epoch":      func(c *Config) { c.EpochCycles++ },
		"reconfig":   func(c *Config) { c.Reconfig = ReconfigStatic },
		"host":       func(c *Config) { c.HostCores = 32 },
		"faults":     func(c *Config) { c.Faults, _ = fault.Parse("cxl-retry,rate=0.5") },
		"fault-seed": func(c *Config) { c.FaultSeed = 99 },
		"max-cycles": func(c *Config) { c.MaxCycles = 1 },
		"seed":       func(c *Config) { c.Seed = 2 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig(NDPExt)
		mutate(&cfg)
		if bytes.Equal(base, cfg.CanonicalBytes()) {
			t.Errorf("mutating %s did not change CanonicalBytes", name)
		}
	}
	// Hooks must NOT perturb the key.
	cfg := DefaultConfig(NDPExt)
	cfg.OnEpoch = func(EpochInfo) {}
	cfg.Probe = telemetry.FuncProbe(func(*telemetry.Event) {})
	if !bytes.Equal(base, cfg.CanonicalBytes()) {
		t.Error("hooks leaked into CanonicalBytes")
	}
}
