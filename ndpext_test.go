package ndpext_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ndpext"
	"ndpext/internal/server/result"
	"ndpext/internal/trace"
)

// smallConfig shrinks the machine so API tests run in milliseconds.
func smallConfig(d ndpext.Design) ndpext.Config {
	cfg := ndpext.DefaultConfig(d)
	cfg.NoC.StacksX, cfg.NoC.StacksY = 2, 1
	cfg.NoC.UnitsX, cfg.NoC.UnitsY = 2, 2
	cfg.UnitRows = 64
	cfg.Sampler.MinBytes = 2 << 10
	cfg.Sampler.MaxBytes = 8 * cfg.UnitCacheBytes()
	cfg.EpochCycles = 100_000
	cfg.HostCores = 4
	return cfg
}

func TestPublicAPIEndToEnd(t *testing.T) {
	tr, err := ndpext.GenerateTrace("recsys", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ndpext.Simulate(smallConfig(ndpext.DesignNDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Accesses == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if hr := res.CacheHitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("implausible hit rate %v", hr)
	}
}

func TestWorkloadsListed(t *testing.T) {
	if got := len(ndpext.Workloads()); got != 14 {
		t.Fatalf("%d workloads, want the paper's 13 plus phased", got)
	}
	if _, err := ndpext.GenerateTrace("not-a-workload", 8, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDesignsCoverPaperFigure5(t *testing.T) {
	ds := ndpext.Designs()
	if len(ds) != 6 {
		t.Fatalf("%d designs, want 6", len(ds))
	}
	if ds[len(ds)-1] != ndpext.DesignNDPExt {
		t.Fatal("NDPExt should be the last (headline) design")
	}
}

func TestCustomWorkloadBuilder(t *testing.T) {
	// A tiny custom kernel: each core scans a shared read-only table and
	// gathers from it through an index array.
	const cores = 8
	b := ndpext.NewBuilder("custom", cores, 500)
	table := b.Indirect(1024, 64)
	index := b.Affine(4096, 4)
	out := b.Affine(4096, 4)
	for c := 0; c < cores; c++ {
		for i := 0; !b.Full(c); i++ {
			b.Read(c, index, i%4096, 1)
			b.Read(c, table, (i*37)%1024, 2)
			b.Write(c, out, i%4096, 1)
		}
	}
	tr := b.Build()
	if tr.TotalAccesses() == 0 {
		t.Fatal("builder produced an empty trace")
	}
	res, err := ndpext.Simulate(smallConfig(ndpext.DesignNDPExt), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != uint64(tr.TotalAccesses()) {
		t.Fatal("not all accesses simulated")
	}
}

func TestAffine2DOrderExposed(t *testing.T) {
	b := ndpext.NewBuilder("order", 2, 100)
	m := b.Affine2D(16, 16, 4, ndpext.OrderYXZ)
	if m.Order != ndpext.OrderYXZ {
		t.Fatal("order not preserved")
	}
}

func TestHMCConfig(t *testing.T) {
	if ndpext.HMCConfig(ndpext.DesignNDPExt).Mem.Name != "HMC2" {
		t.Fatal("HMC config wrong memory")
	}
}

func TestExperimentScales(t *testing.T) {
	q, f := ndpext.QuickExperiments(), ndpext.FullExperiments()
	if len(q.Workloads) >= len(f.Workloads) {
		t.Fatal("quick scale not smaller than full")
	}
	if len(f.Workloads) != 13 {
		t.Fatalf("full scale covers %d workloads", len(f.Workloads))
	}
}

// SaveTrace -> LoadTrace -> Simulate must give the same canonical result
// document as simulating the in-memory trace.
func TestSaveLoadTraceRoundTrip(t *testing.T) {
	tr, err := ndpext.GenerateTraceN("recsys", 8, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "recsys.ndptrc")
	if err := ndpext.SaveTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ndpext.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(tr *ndpext.Trace) []byte {
		t.Helper()
		res, err := ndpext.Simulate(smallConfig(ndpext.DesignNDPExt), tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := result.Encode(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if want, got := doc(tr), doc(loaded); !bytes.Equal(want, got) {
		t.Fatalf("replayed document differs:\n%s\nvs\n%s", got, want)
	}
}

// A file in the retired gob trace format is rejected as corrupt, not
// decoded and not a panic.
func TestLoadTraceRejectsLegacyGob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.gob")
	legacyMagic := []byte{'N', 'D', 'P', 'W', 'L', 1} // magic + version of the gob format
	if err := os.WriteFile(path, append(legacyMagic, bytes.Repeat([]byte{0x7f}, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ndpext.LoadTrace(path); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("LoadTrace error = %v, want one wrapping trace.ErrCorrupt", err)
	}
}
