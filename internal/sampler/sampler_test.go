package sampler

import (
	"math"
	"testing"

	"ndpext/internal/sim"
)

func cfg() Config {
	return DefaultConfig(8 << 20) // 8 MB per-unit DRAM at model scale
}

func TestDefaultConfigMatchesPaperShape(t *testing.T) {
	c := DefaultConfig(256 << 20)
	if c.CapacityPoints != 64 || c.SampleSets != 32 || c.SamplersPerUnit != 4 {
		t.Fatalf("c/k/S = %d/%d/%d, want 64/32/4", c.CapacityPoints, c.SampleSets, c.SamplersPerUnit)
	}
	if c.MinBytes != 32<<10 || c.MaxBytes != 256<<20 {
		t.Fatalf("range [%d, %d], want [32 kB, 256 MB]", c.MinBytes, c.MaxBytes)
	}
	if c.StorageBytes() != 8<<10 {
		t.Fatalf("sampler storage = %d, want 8 kB", c.StorageBytes())
	}
	// Geometric per-step factor ~1.16 for the paper range.
	ratio := math.Pow(float64(c.MaxBytes)/float64(c.MinBytes), 1/float64(c.CapacityPoints-1))
	if ratio < 1.15 || ratio > 1.17 {
		t.Fatalf("per-step factor = %.3f, want ~1.16", ratio)
	}
}

func TestValidate(t *testing.T) {
	bad := cfg()
	bad.CapacityPoints = 1
	if bad.Validate() == nil {
		t.Fatal("1 capacity point validated")
	}
	bad = cfg()
	bad.MaxBytes = bad.MinBytes - 1
	if bad.Validate() == nil {
		t.Fatal("inverted range validated")
	}
	if cfg().Validate() != nil {
		t.Fatal("good config rejected")
	}
}

func TestCurveMonotonicityForReuseWorkload(t *testing.T) {
	// A cyclic scan over a working set that fits in the larger monitored
	// capacities but not the smaller ones: miss rate must (weakly)
	// decrease with capacity.
	s := New(cfg(), 64)
	const workingSet = 8192 // items x 64 B = 512 kB working set
	rng := sim.NewRNG(1)
	for i := 0; i < 400000; i++ {
		s.Observe(uint64(rng.Intn(workingSet)))
	}
	c := s.Curve()
	// Allow small sampling noise: compare smoothed neighbours.
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].MissRate > c.Points[i-1].MissRate+0.15 {
			t.Fatalf("miss rate increased sharply with capacity: %.3f@%d -> %.3f@%d",
				c.Points[i-1].MissRate, c.Points[i-1].Bytes, c.Points[i].MissRate, c.Points[i].Bytes)
		}
	}
	// Full capacity (8 MB) holds the 512 kB working set: near-zero misses.
	if mr := c.MissRateAt(8 << 20); mr > 0.1 {
		t.Fatalf("miss rate at full capacity = %.3f, want near 0", mr)
	}
	// Tiny capacity misses nearly always on a uniform working set.
	if mr := c.MissRateAt(2048); mr < 0.5 {
		t.Fatalf("miss rate at 2 kB = %.3f, want high", mr)
	}
}

func TestCurveCapturesZipfSkew(t *testing.T) {
	// A skewed workload hits even at small capacity (the hot head fits).
	s := New(cfg(), 64)
	rng := sim.NewRNG(2)
	z := sim.NewZipfTable(1<<16, 1.2).Sampler(rng)
	for i := 0; i < 300000; i++ {
		s.Observe(uint64(z.Next()))
	}
	c := s.Curve()
	small := c.MissRateAt(64 << 10)
	large := c.MissRateAt(4 << 20)
	if small < large {
		t.Fatalf("small capacity (%.3f) outperformed large (%.3f)", small, large)
	}
	if small > 0.9 {
		t.Fatalf("Zipf workload at 64 kB missed %.3f of accesses; the hot set should fit", small)
	}
}

func TestInterpolationBounds(t *testing.T) {
	c := Curve{
		ItemBytes: 64,
		Accesses:  1000,
		Points: []CurvePoint{
			{Bytes: 1024, MissRate: 0.8},
			{Bytes: 4096, MissRate: 0.2},
		},
	}
	if c.MissRateAt(0) != 1 {
		t.Fatal("zero capacity must miss")
	}
	if c.MissRateAt(512) != 0.8 {
		t.Fatal("below-range clamp failed")
	}
	if c.MissRateAt(1<<30) != 0.2 {
		t.Fatal("above-range clamp failed")
	}
	mid := c.MissRateAt(2048)
	if mid <= 0.2 || mid >= 0.8 {
		t.Fatalf("interpolated value %.3f outside (0.2, 0.8)", mid)
	}
	if got := c.MissesAt(4096); got != 200 {
		t.Fatalf("MissesAt = %v, want 200", got)
	}
}

func TestEmptyCurveAlwaysMisses(t *testing.T) {
	var c Curve
	if c.MissRateAt(1<<20) != 1 {
		t.Fatal("empty curve should be pessimistic")
	}
}

func TestFlatCurve(t *testing.T) {
	c := FlatCurve(64, 500)
	if c.MissRateAt(1<<20) != 1 || c.Accesses != 500 {
		t.Fatalf("flat curve wrong: %+v", c)
	}
}

func TestSamplerReset(t *testing.T) {
	s := New(cfg(), 64)
	for i := 0; i < 1000; i++ {
		s.Observe(uint64(i))
	}
	if s.Accesses() != 1000 {
		t.Fatalf("accesses = %d", s.Accesses())
	}
	s.Reset()
	if s.Accesses() != 0 {
		t.Fatal("Reset kept the access count")
	}
	c := s.Curve()
	for _, p := range c.Points {
		if p.Sampled != 0 {
			t.Fatal("Reset kept sampled counts")
		}
	}
}

func TestSamplerDeterminism(t *testing.T) {
	run := func() Curve {
		s := New(cfg(), 64)
		rng := sim.NewRNG(7)
		for i := 0; i < 50000; i++ {
			s.Observe(uint64(rng.Intn(10000)))
		}
		return s.Curve()
	}
	a, b := run(), run()
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("nondeterministic curve at point %d", i)
		}
	}
}

func TestFewerSampleSetsStillApproximate(t *testing.T) {
	// Fig. 9(d): k has little effect. Compare k=32 and k=8 curves on the
	// same trace; they should agree within sampling noise at the capacity
	// where the working set fits.
	curveWithK := func(k int) Curve {
		c := cfg()
		c.SampleSets = k
		s := New(c, 64)
		rng := sim.NewRNG(3)
		for i := 0; i < 400000; i++ {
			s.Observe(uint64(rng.Intn(4096))) // 256 kB working set
		}
		return s.Curve()
	}
	c32 := curveWithK(32)
	c8 := curveWithK(8)
	for _, capB := range []int64{64 << 10, 1 << 20, 8 << 20} {
		d := math.Abs(c32.MissRateAt(capB) - c8.MissRateAt(capB))
		if d > 0.15 {
			t.Fatalf("k=8 and k=32 disagree by %.3f at %d bytes", d, capB)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad config": func() { New(Config{}, 64) },
		"zero item":  func() { New(cfg(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
