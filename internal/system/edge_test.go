package system

import (
	"testing"

	"ndpext/internal/stream"
	"ndpext/internal/workloads"
)

// bypassTrace builds a trace where some accesses fall outside every
// configured stream (the <0.1% case of §IV-C: bypass the DRAM cache and
// go directly to extended memory).
func bypassTrace(t *testing.T, cores int) *workloads.Trace {
	t.Helper()
	b := workloads.NewBuilder("bypass", cores, 400)
	s := b.Indirect(1024, 4)
	tr := b.Build()
	for c := 0; c < cores; c++ {
		var accs []workloads.Access
		for i := 0; i < 300; i++ {
			if i%10 == 0 {
				// An address far outside any stream.
				accs = append(accs, workloads.Access{Addr: 0xF000000000 + uint64(c*64+i), Gap: 1})
			} else {
				accs = append(accs, workloads.Access{Addr: s.Base + uint64(i%1024)*4, Gap: 1})
			}
		}
		tr.PerCore[c] = accs
	}
	return tr
}

func TestBypassAccessesReachExtendedMemory(t *testing.T) {
	tr := bypassTrace(t, 8)
	for _, d := range []Design{NDPExt, Nexus} {
		res, err := Run(smallConfig(d), tr)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Accesses != uint64(tr.TotalAccesses()) {
			t.Fatalf("%v: lost accesses", d)
		}
		if res.Breakdown.Extended <= 0 {
			t.Fatalf("%v: bypass accesses never reached extended memory", d)
		}
	}
}

func TestWriteExceptionPathEndToEnd(t *testing.T) {
	// A stream that is read for a while and then written must raise
	// exactly one exception per stream and keep simulating correctly.
	b := workloads.NewBuilder("rw-flip", 8, 600)
	s := b.Indirect(2048, 4)
	for c := 0; c < 8; c++ {
		for i := 0; i < 400; i++ {
			b.Read(c, s, (i*13+c)%2048, 1)
		}
		for i := 0; i < 200; i++ {
			b.Write(c, s, (i*7+c)%2048, 1)
		}
	}
	tr := b.Build()
	res, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exceptions != 1 {
		t.Fatalf("exceptions = %d, want exactly 1 (one per stream)", res.Exceptions)
	}
}

func TestAllWorkloadsRunOnNDPExt(t *testing.T) {
	// Integration sweep: every built-in workload simulates end to end on
	// the small machine without error and with sane statistics.
	if testing.Short() {
		t.Skip("integration sweep")
	}
	sc := workloads.TinyScale()
	sc.CoresPerProc = 4
	for _, name := range workloads.Names() {
		gen, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := gen(8, 7, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(smallConfig(NDPExt), tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Accesses != uint64(tr.TotalAccesses()) {
			t.Fatalf("%s: %d of %d accesses simulated", name, res.Accesses, tr.TotalAccesses())
		}
		if hr := res.CacheHitRate(); hr < 0 || hr > 1 {
			t.Fatalf("%s: hit rate %v", name, hr)
		}
		if res.Time <= 0 || res.Energy.Total() <= 0 {
			t.Fatalf("%s: degenerate result", name)
		}
	}
}

func TestReconfigModesOrdering(t *testing.T) {
	// Full reconfiguration must at least not be catastrophically worse
	// than never reconfiguring on a phase-changing workload, and the
	// machinery must produce different configurations.
	tr := tinyTrace(t, "backprop")
	times := map[ReconfigMode]int64{}
	for _, m := range []ReconfigMode{ReconfigStatic, ReconfigFull} {
		cfg := smallConfig(NDPExt)
		cfg.Reconfig = m
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		times[m] = int64(res.Time)
	}
	if times[ReconfigFull] > times[ReconfigStatic]*3 {
		t.Fatalf("full reconfig (%d) catastrophically slower than static (%d)",
			times[ReconfigFull], times[ReconfigStatic])
	}
}

func TestWayPredictEndToEnd(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	cfg := smallConfig(NDPExt)
	cfg.Stream.IndirectWays = 4
	cfg.Stream.WayPredict = true
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	ideal := smallConfig(NDPExt)
	ideal.Stream.IndirectWays = 4
	resIdeal, err := Run(ideal, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Way prediction pays extra DRAM accesses per misprediction; at tiny
	// scale scheduling butterflies dominate exact ordering, so just
	// require the penalty to stay bounded.
	if res.Time > resIdeal.Time*2 {
		t.Fatalf("way-predicted (%v) wildly slower than idealized (%v)", res.Time, resIdeal.Time)
	}
}

func TestStreamReportsPopulated(t *testing.T) {
	tr := tinyTrace(t, "mv")
	res, err := Run(smallConfig(NDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	reports := res.StreamReports()
	if len(reports) == 0 {
		t.Fatal("no stream reports")
	}
	var withTraffic int
	for _, sr := range reports {
		if sr.Hits+sr.Misses > 0 {
			withTraffic++
		}
		if sr.SID == stream.NoStream {
			t.Fatal("reserved sid in reports")
		}
	}
	if withTraffic == 0 {
		t.Fatal("no stream saw traffic")
	}
}

func TestOnEpochHook(t *testing.T) {
	tr := tinyTrace(t, "recsys")
	cfg := smallConfig(NDPExt)
	var infos []EpochInfo
	cfg.OnEpoch = func(e EpochInfo) { infos = append(infos, e) }
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("hook never fired")
	}
	if infos[0].Epoch != 1 {
		t.Fatalf("first epoch = %d", infos[0].Epoch)
	}
	reconfigs, kept, dropped := 0, 0, 0
	for _, e := range infos {
		if e.Reconfigured {
			reconfigs++
		}
		if e.ActiveStreams < 0 {
			t.Fatal("negative stream count")
		}
		kept += e.ItemsKept
		dropped += e.ItemsDropped
	}
	if reconfigs != res.Reconfigs {
		t.Fatalf("hook saw %d reconfigs, result says %d", reconfigs, res.Reconfigs)
	}
	if kept != res.ReconfigKept || dropped != res.ReconfigDropped {
		t.Fatalf("hook saw %d kept / %d dropped items, result says %d / %d",
			kept, dropped, res.ReconfigKept, res.ReconfigDropped)
	}
	// The hook must not change the simulation outcome.
	plain := smallConfig(NDPExt)
	ref, err := Run(plain, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Time != res.Time {
		t.Fatalf("observer changed the simulation: %v vs %v", res.Time, ref.Time)
	}
}

// Every access is an L1 hit, a DRAM-cache hit or a DRAM-cache miss, and
// the live counters each OnEpoch snapshot carries partition the accesses
// that way at every boundary, for every NDP design, fault-free and
// faulted: an access redirected off a dead vault keeps the hit or miss
// its controller classified it as.
func TestOnEpochCountersPartitionAccesses(t *testing.T) {
	tr := tinyTrace(t, "pr")
	// A vault that dies mid-epoch: accesses homed on it are redirected
	// to extended memory until the next boundary remaps its streams.
	const midEpoch = "vault-fail,unit=2,at=20us"
	type input struct {
		d         Design
		faults    string
		faultSeed uint64
	}
	var ins []input
	for _, d := range append(NDPDesigns(), NDPExtMAB) {
		ins = append(ins, input{d: d}, input{d, midEpoch, 1})
	}
	// The fault specs of the golden cases ndpext-faults-pr,
	// jigsaw-faults-pr and nexus-faults-pr.
	ins = append(ins,
		input{NDPExt, "vault-fail,unit=5,at=100us;cxl-retry,rate=0.05,lat=200ns;cxl-degrade,at=200us,dur=100us,factor=4", 7},
		input{Jigsaw, "vault-fail,unit=2,at=150us", 3},
		input{Nexus, "vault-fail,unit=6,at=120us;cxl-degrade,at=50us,dur=200us,factor=7", 5})
	for _, in := range ins {
		cfg := faultConfig(t, in.d, in.faults)
		cfg.FaultSeed = in.faultSeed
		epochs, remapped := 0, 0
		cfg.OnEpoch = func(e EpochInfo) {
			epochs++
			remapped += e.RemappedStreams
			c := e.Counters
			if got := c.L1Hits + c.CacheHits + c.CacheMisses; got != c.Accesses {
				t.Errorf("%v %q epoch %d: l1 %d + hits %d + misses %d = %d, want %d accesses",
					in.d, in.faults, e.Epoch, c.L1Hits, c.CacheHits, c.CacheMisses, got, c.Accesses)
			}
		}
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("%v %q: %v", in.d, in.faults, err)
		}
		if epochs == 0 {
			t.Fatalf("%v %q: OnEpoch never fired", in.d, in.faults)
		}
		if in.faults == midEpoch && res.Metrics().Uint("fault.vault_redirects") == 0 {
			t.Errorf("%v %q: no access was redirected off the dead vault", in.d, in.faults)
		}
		if got := res.L1Hits + res.CacheHits + res.CacheMisses; got != res.Accesses {
			t.Errorf("%v %q result: %d classified, %d accesses", in.d, in.faults, got, res.Accesses)
		}
		if in.faults != "" {
			if want := res.Metrics().Uint("fault.remapped_streams"); uint64(remapped) != want {
				t.Errorf("%v %q: OnEpoch remap total %d, fault.remapped_streams %d", in.d, in.faults, remapped, want)
			}
		}
	}
}
