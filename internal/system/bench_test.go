package system

import (
	"testing"

	"ndpext/internal/sim"
	"ndpext/internal/workloads"
)

// benchTrace generates one small trace outside the timed region.
func benchTrace(b *testing.B, cores int) *workloads.Trace {
	b.Helper()
	gen, err := workloads.Get("pr")
	if err != nil {
		b.Fatal(err)
	}
	sc := workloads.TinyScale()
	sc.CoresPerProc = 4
	tr, err := gen(cores, 42, sc)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkPerAccess measures the simulator's per-access hot path — the
// cost of pushing one memory access through placement lookup, cache
// model, NoC, and accounting — as ns/access (custom metric) on the
// small 8-unit machine. This is the number the serving layer's capacity
// planning leans on: jobs/sec scales inversely with it.
func BenchmarkPerAccess(b *testing.B) {
	tr := benchTrace(b, 8)
	cfg := smallConfig(NDPExt)
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.Accesses
	}
	b.StopTimer()
	if accesses > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
	}
}

// BenchmarkPerAccessHost is the host-baseline counterpart: the epoch
// runtime is bypassed, so this isolates the memory-path cost itself.
func BenchmarkPerAccessHost(b *testing.B) {
	tr := benchTrace(b, 8)
	cfg := smallConfig(Host)
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.Accesses
	}
	b.StopTimer()
	if accesses > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
	}
}

// BenchmarkMemPath isolates the per-access memory path — the event
// loop's L1 front end through the design's memory path stages, the NoC,
// the DRAM models, and telemetry — with no epoch boundary in the timed
// region. The epoch pipe runs inline, so sampler observations are
// applied on the timed thread. This is the path whose optimization
// BENCH_core.json tracks; it must not allocate in steady state beyond
// what the component models themselves require.
func BenchmarkMemPath(b *testing.B) {
	for _, d := range []Design{NDPExt, Jigsaw} {
		b.Run(d.String(), func(b *testing.B) {
			tr := benchTrace(b, 8)
			cfg := smallConfig(d)
			s, err := newNDPSim(cfg, tr.Source())
			if err != nil {
				b.Fatal(err)
			}
			s.bootstrap()
			s.startPipe(true)
			cores := len(tr.PerCore)
			idx := make([]int, cores)
			t := make([]sim.Time, cores)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := i % cores
				a := tr.PerCore[c][idx[c]]
				t[c], _, _ = s.events.access(t[c], c, a)
				if idx[c]++; idx[c] == len(tr.PerCore[c]) {
					idx[c] = 0
				}
			}
		})
	}
}

// BenchmarkEndToEndEpoch measures a complete small simulation dominated
// by epoch boundaries (policy optimization, sampler reassignment,
// reconfiguration): the short epoch forces ~20 boundaries per run, so
// ns/epoch tracks the host-runtime cost the serving layer pays per job.
func BenchmarkEndToEndEpoch(b *testing.B) {
	tr := benchTrace(b, 8)
	cfg := smallConfig(NDPExt)
	cfg.EpochCycles = 25_000
	var epochs uint64
	cfg.OnEpoch = func(EpochInfo) { epochs++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if epochs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs), "ns/epoch")
	}
}

// BenchmarkCanonicalBytes measures canonical config serialization — the
// front half of the serving layer's job keying (the back half, SHA-256,
// is benchmarked in internal/simcache).
func BenchmarkCanonicalBytes(b *testing.B) {
	cfg := DefaultConfig(NDPExt)
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(cfg.CanonicalBytes())
	}
	if n == 0 {
		b.Fatal("empty canonical form")
	}
}
