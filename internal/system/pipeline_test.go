package system

import (
	"testing"

	"ndpext/internal/energy"
	"ndpext/internal/sim"
	"ndpext/internal/stats"
	"ndpext/internal/telemetry"
)

// fingerprint condenses every externally visible Result field into one
// comparable value, so determinism tests cover the whole surface rather
// than a few counters.
type fingerprint struct {
	Time            sim.Time
	Accesses        uint64
	L1Hits          uint64
	Breakdown       stats.Breakdown
	CacheHits       uint64
	CacheMisses     uint64
	Energy          energy.Breakdown
	MetaHitRate     float64
	SLBHitRate      float64
	Reconfigs       int
	ReconfigKept    int
	ReconfigDropped int
	Exceptions      uint64
	ReplicatedRows  uint64
	RowsAllocated   uint64
	SamplerCovered  int
	AdaptArm        string
	AdaptSwitches   int
}

func fp(r *Result) fingerprint {
	return fingerprint{
		Time: r.Time, Accesses: r.Accesses, L1Hits: r.L1Hits,
		Breakdown: r.Breakdown, CacheHits: r.CacheHits, CacheMisses: r.CacheMisses,
		Energy: r.Energy, MetaHitRate: r.MetaHitRate, SLBHitRate: r.SLBHitRate,
		Reconfigs: r.Reconfigs, ReconfigKept: r.ReconfigKept, ReconfigDropped: r.ReconfigDropped,
		Exceptions: r.Exceptions, ReplicatedRows: r.ReplicatedRows, RowsAllocated: r.RowsAllocated,
		SamplerCovered: r.SamplerCovered,
		AdaptArm:       r.AdaptArm, AdaptSwitches: r.AdaptSwitches,
	}
}

// Same config + seed must give a bit-identical Result on both path
// families (stream pipeline and NUCA pipeline) and the host model.
func TestDeterminismAllPaths(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	for _, d := range []Design{NDPExt, Jigsaw, Host} {
		a, err := Run(smallConfig(d), tr)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		b, err := Run(smallConfig(d), tr)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if fp(a) != fp(b) {
			t.Fatalf("%v nondeterministic:\n%+v\nvs\n%+v", d, fp(a), fp(b))
		}
	}
}

// An attached probe must observe every access with self-consistent
// per-level attribution, and must not perturb the simulation.
func TestProbeAttributionConsistent(t *testing.T) {
	tr := tinyTrace(t, "pr")
	base, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}

	var events []telemetry.Event
	cfg := smallConfig(NDPExt)
	cfg.Probe = telemetry.FuncProbe(func(ev *telemetry.Event) { events = append(events, *ev) })
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	if fp(res) != fp(base) {
		t.Fatal("attaching a probe changed the simulation result")
	}
	if uint64(len(events)) != res.Accesses {
		t.Fatalf("probe saw %d events, run had %d accesses", len(events), res.Accesses)
	}
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.End < ev.Start {
			t.Fatalf("event %d ends before it starts: %+v", i, ev)
		}
		var sum sim.Time
		for l := telemetry.Level(0); l < telemetry.NumLevels; l++ {
			if ev.Levels[l] < 0 {
				t.Fatalf("event %d negative latency at %v", i, l)
			}
			sum += ev.Levels[l]
		}
		if sum != ev.End-ev.Start {
			t.Fatalf("event %d level latencies sum to %v, span is %v", i, sum, ev.End-ev.Start)
		}
		if ev.Served < 0 || ev.Served >= telemetry.NumLevels {
			t.Fatalf("event %d served level %d out of range", i, ev.Served)
		}
		if ev.SID < -1 {
			t.Fatalf("event %d has SID %d", i, ev.SID)
		}
	}
}

// Sampling keeps the first event of each stride; the host model emits
// probe events too.
func TestProbeSamplingAndHost(t *testing.T) {
	tr := tinyTrace(t, "pr")
	const every = 100
	var n uint64
	cfg := smallConfig(NDPExt)
	cfg.Probe = telemetry.Sampled(telemetry.FuncProbe(func(*telemetry.Event) { n++ }), every)
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := (res.Accesses + every - 1) / every; n != want {
		t.Fatalf("sampled probe saw %d events, want %d", n, want)
	}

	var hostN uint64
	hcfg := smallConfig(Host)
	hcfg.Probe = telemetry.FuncProbe(func(*telemetry.Event) { hostN++ })
	hres, err := Run(hcfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if hostN != hres.Accesses {
		t.Fatalf("host probe saw %d events, run had %d accesses", hostN, hres.Accesses)
	}
}

// Every NDP run exposes its component telemetry registry; the Result's
// headline numbers are views over it.
func TestMetricsRegistryExposed(t *testing.T) {
	tr := tinyTrace(t, "pr")

	res, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Metrics()
	if reg == nil {
		t.Fatal("NDPExt run has no metrics registry")
	}
	for _, name := range []string{"noc.messages", "cxl.reads", "streamcache.lookups", "dram.unit000.reads"} {
		if !reg.Has(name) {
			t.Fatalf("registry missing %q; have %v", name, reg.Names())
		}
	}
	if reg.SumFloat("dram.unit") <= 0 {
		t.Fatal("no DRAM energy accumulated across units")
	}
	if got := reg.Uint("streamcache.hits") + reg.Uint("streamcache.slb_hits"); got == 0 {
		t.Fatal("stream cache counters empty")
	}

	nres, err := Run(smallConfig(Nexus), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !nres.Metrics().Has("nuca.lookups") {
		t.Fatal("NUCA run missing nuca.* metrics")
	}

	hres, err := Run(smallConfig(Host), tr)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Metrics() != nil {
		t.Fatal("host model unexpectedly reports a component registry")
	}
}
