package system

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ndpext/internal/fault"
	"ndpext/internal/telemetry"
)

// faultConfig builds the small test machine with a parsed fault spec.
func faultConfig(t *testing.T, d Design, spec string) Config {
	t.Helper()
	cfg := smallConfig(d)
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = s
	cfg.FaultSeed = 1
	return cfg
}

// registryWithout snapshots a metrics registry minus one name prefix.
func registryWithout(reg *telemetry.Registry, prefix string) map[string]telemetry.Value {
	out := map[string]telemetry.Value{}
	reg.Each(func(name string, v telemetry.Value) {
		if len(name) < len(prefix) || name[:len(prefix)] != prefix {
			out[name] = v
		}
	})
	return out
}

// An injector whose clauses never fire (rate=0, window in the far
// future) must leave the simulation bit-identical to running with no
// injector at all — the registry may only gain the fault.* counters.
func TestZeroRateInjectorBitIdentical(t *testing.T) {
	tr := tinyTrace(t, "pr")
	base, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(faultConfig(t, NDPExt, "cxl-retry,rate=0;cxl-degrade,at=1s,factor=8;noc-flap,at=1s,lat=500ns"), tr)
	if err != nil {
		t.Fatal(err)
	}
	if fp(res) != fp(base) {
		t.Fatalf("inactive injector changed the result:\n%+v\nvs\n%+v", fp(base), fp(res))
	}
	bm := registryWithout(base.Metrics(), "fault.")
	rm := registryWithout(res.Metrics(), "fault.")
	if len(bm) != len(rm) {
		t.Fatalf("non-fault metric count changed: %d vs %d", len(bm), len(rm))
	}
	for name, v := range bm {
		if rm[name] != v {
			t.Fatalf("metric %q changed: %+v vs %+v", name, v, rm[name])
		}
	}
	if got := res.Metrics().Uint("fault.injected"); got != 0 {
		t.Fatalf("inactive injector reported %d injections", got)
	}
}

// A fixed (spec, fault-seed) must reproduce the whole run bit-for-bit:
// the Result, the metrics registry, and the JSONL probe byte stream.
func TestFaultDeterminism(t *testing.T) {
	tr := tinyTrace(t, "pr")
	spec := "cxl-retry,rate=0.05,lat=200ns;vault-fail,unit=2,at=0;noc-flap,stack=0,dir=0,lat=30ns"
	one := func() (*Result, map[string]telemetry.Value, []byte) {
		var buf bytes.Buffer
		jsonl := telemetry.NewJSONL(&buf)
		cfg := faultConfig(t, NDPExt, spec)
		cfg.Probe = telemetry.Sampled(jsonl, 7)
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, registryWithout(res.Metrics(), ""), buf.Bytes()
	}
	a, am, ab := one()
	b, bm, bb := one()
	if fp(a) != fp(b) {
		t.Fatalf("same fault seed diverged:\n%+v\nvs\n%+v", fp(a), fp(b))
	}
	if len(am) != len(bm) {
		t.Fatalf("metric count diverged: %d vs %d", len(am), len(bm))
	}
	for name, v := range am {
		if bm[name] != v {
			t.Fatalf("metric %q diverged: %+v vs %+v", name, v, bm[name])
		}
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("JSONL probe streams diverged between identical runs")
	}
	if a.Metrics().Uint("fault.injected") == 0 {
		t.Fatal("fault spec injected nothing; determinism test is vacuous")
	}

	// A different fault seed must actually change the injected pattern.
	cfg := faultConfig(t, NDPExt, spec)
	cfg.FaultSeed = 99
	c, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics().Uint("fault.retries") == a.Metrics().Uint("fault.retries") && fp(c) == fp(a) {
		t.Fatal("different fault seeds produced identical runs")
	}
}

// FaultSeed=0 falls back to the workload seed.
func TestFaultSeedFallback(t *testing.T) {
	tr := tinyTrace(t, "pr")
	cfgA := faultConfig(t, NDPExt, "cxl-retry,rate=0.05,lat=200ns")
	cfgA.Seed = 5
	cfgA.FaultSeed = 0
	cfgB := faultConfig(t, NDPExt, "cxl-retry,rate=0.05,lat=200ns")
	cfgB.Seed = 5
	cfgB.FaultSeed = 5
	a, err := Run(cfgA, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfgB, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fp(a) != fp(b) {
		t.Fatal("FaultSeed=0 did not fall back to Config.Seed")
	}
}

// With placement fixed (ReconfigStatic cuts the epoch feedback loop),
// injected faults can only add latency and energy, never remove them.
func TestFaultsMonotoneUnderStaticPlacement(t *testing.T) {
	tr := tinyTrace(t, "pr")
	base := smallConfig(NDPExt)
	base.Reconfig = ReconfigStatic
	ref, err := Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"cxl-retry,rate=0.1,lat=200ns",
		"cxl-degrade,at=0,factor=4",
		"noc-flap,lat=30ns",
		"cxl-retry,rate=0.1,lat=200ns;cxl-degrade,at=0,factor=4;noc-flap,lat=30ns",
	} {
		cfg := faultConfig(t, NDPExt, spec)
		cfg.Reconfig = ReconfigStatic
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m := res.Metrics()
		if m.Uint("fault.injected")+m.Uint("fault.degraded_accesses") == 0 {
			t.Fatalf("%s: injected nothing; monotonicity test is vacuous", spec)
		}
		if res.Time < ref.Time {
			t.Fatalf("%s: faults shortened the run: %v < %v", spec, res.Time, ref.Time)
		}
		if res.Energy.Total() < ref.Energy.Total() {
			t.Fatalf("%s: faults reduced energy: %v < %v", spec, res.Energy.Total(), ref.Energy.Total())
		}
	}
}

// A vault failure must surface end to end: accesses homed on the dead
// unit redirect to extended memory, the next epoch boundary reports a
// degraded epoch, and the runtime remaps the affected streams.
func TestVaultFailRemapsStreams(t *testing.T) {
	tr := tinyTrace(t, "pr")
	cfg := faultConfig(t, NDPExt, "vault-fail,unit=2,at=0")
	var infos []EpochInfo
	cfg.OnEpoch = func(e EpochInfo) { infos = append(infos, e) }
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if got := m.Uint("fault.vault_redirects"); got == 0 {
		t.Fatal("no accesses redirected off the failed vault")
	}
	if got := m.Uint("fault.remapped_streams"); got == 0 {
		t.Fatal("no streams remapped off the failed vault")
	}
	if got := m.Uint("fault.degraded_epochs"); got == 0 {
		t.Fatal("no epoch reported as degraded")
	}
	sawDegraded := false
	remapped := 0
	for _, e := range infos {
		if e.Degraded {
			sawDegraded = true
			if e.FailedUnits != 1 {
				t.Fatalf("degraded epoch reports %d failed units, want 1", e.FailedUnits)
			}
		}
		remapped += e.RemappedStreams
	}
	if !sawDegraded {
		t.Fatal("OnEpoch never reported a degraded epoch")
	}
	if uint64(remapped) != m.Uint("fault.remapped_streams") {
		t.Fatalf("OnEpoch remap total %d != metric %d", remapped, m.Uint("fault.remapped_streams"))
	}
	// The dead vault must stop serving DRAM traffic once remapped: its
	// read count stays below any surviving unit's.
	dead := m.Uint("dram.unit002.reads")
	for _, u := range []string{"000", "001", "003"} {
		if live := m.Uint("dram.unit" + u + ".reads"); live <= dead {
			t.Fatalf("surviving unit%s served %d reads, dead unit002 served %d", u, live, dead)
		}
	}
}

// The NUCA pipeline must survive a vault failure too: degraded epochs
// are flagged and accesses redirect rather than hang.
func TestVaultFailOnNUCAPath(t *testing.T) {
	tr := tinyTrace(t, "pr")
	res, err := Run(faultConfig(t, Nexus, "vault-fail,unit=1,at=0"), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != uint64(tr.TotalAccesses()) {
		t.Fatalf("NUCA run lost accesses: %d of %d", res.Accesses, tr.TotalAccesses())
	}
	if res.Metrics().Uint("fault.vault_redirects") == 0 {
		t.Fatal("NUCA path never redirected off the failed vault")
	}
}

// The cycle-budget watchdog aborts deterministically: truncated runs
// are reproducible and still publish their partial telemetry.
func TestWatchdogCycleBudget(t *testing.T) {
	tr := tinyTrace(t, "pr")
	full, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated {
		t.Fatal("unbounded run reports truncation")
	}

	run := func() *Result {
		var buf bytes.Buffer
		jsonl := telemetry.NewJSONL(&buf)
		cfg := smallConfig(NDPExt)
		cfg.MaxCycles = 20_000 // well inside the full run
		cfg.Probe = telemetry.Sampled(jsonl, 5)
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("truncated run flushed no partial telemetry")
		}
		return res
	}
	a := run()
	if !a.Truncated || a.TruncateReason != "cycle budget exceeded" {
		t.Fatalf("bad truncation state: %v %q", a.Truncated, a.TruncateReason)
	}
	if a.Accesses == 0 || a.Accesses >= full.Accesses {
		t.Fatalf("truncated run simulated %d accesses, full run %d", a.Accesses, full.Accesses)
	}
	if a.Metrics() == nil {
		t.Fatal("truncated run dropped its metrics registry")
	}
	b := run()
	if fp(a) != fp(b) {
		t.Fatalf("cycle-budget truncation nondeterministic:\n%+v\nvs\n%+v", fp(a), fp(b))
	}

	// The host model honors the same budget.
	hcfg := smallConfig(Host)
	hcfg.MaxCycles = 20_000
	h, err := Run(hcfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Truncated {
		t.Fatal("host run ignored the cycle budget")
	}
}

// expired returns a context whose deadline has already passed.
func expired(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Time{})
	t.Cleanup(cancel)
	return ctx
}

// An already-expired deadline aborts on the first event.
func TestWatchdogWallClock(t *testing.T) {
	tr := tinyTrace(t, "pr")
	for _, d := range []Design{NDPExt, Host} {
		res, err := RunContext(expired(t), smallConfig(d), tr.Source())
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v: error = %v, want context.DeadlineExceeded", d, err)
		}
		if !res.Truncated || res.TruncateReason != "wall-clock limit exceeded" {
			t.Fatalf("%v: bad truncation state: %v %q", d, res.Truncated, res.TruncateReason)
		}
		if res.Accesses >= uint64(tr.TotalAccesses()) {
			t.Fatalf("%v: expired deadline still simulated the whole trace", d)
		}
	}
}

// Config validation rejects malformed fault and watchdog settings.
func TestValidateRejectsBadFaultConfigs(t *testing.T) {
	bad := faultConfig(t, NDPExt, "vault-fail,unit=99,at=0") // 8-unit machine
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range vault unit accepted")
	}
	neg := smallConfig(NDPExt)
	neg.MaxCycles = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative cycle budget accepted")
	}
}
