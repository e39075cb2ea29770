package adapt

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ndpext/internal/policy"
	"ndpext/internal/sampler"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// testConfig is a small 4-unit machine for arm/evaluator tests.
func testConfig() policy.Config {
	return policy.Config{
		NumUnits:      4,
		RowBytes:      2048,
		UnitRows:      64,
		AffineCapRows: 16,
		SegRows:       2,
		Attenuation: func(u, v int) float64 {
			return 1 / (1 + float64(abs(u-v)))
		},
		MaxGroups: 8,
		MaxIters:  10_000,
		MissLatNS: 500,
		NetLatNS:  func(d int) float64 { return 40 / float64(d) },
	}
}

func curveAt(hot int64) sampler.Curve {
	return sampler.Curve{
		ItemBytes: 64,
		Accesses:  1000,
		Points: []sampler.CurvePoint{
			{Bytes: hot / 4, MissRate: 0.8, Sampled: 1},
			{Bytes: hot, MissRate: 0.05, Sampled: 1},
		},
	}
}

func testInputs() []policy.StreamInput {
	return []policy.StreamInput{
		{
			SID:        1,
			Curve:      curveAt(32 << 10),
			LocalCurve: curveAt(8 << 10),
			Acc:        map[int]uint64{0: 500, 1: 400, 2: 300, 3: 200},
			ReadOnly:   true,
			Footprint:  64 << 10,
		},
		{
			SID:       2,
			Curve:     curveAt(64 << 10),
			Acc:       map[int]uint64{1: 100, 2: 150},
			ReadOnly:  false,
			Footprint: 128 << 10,
		},
		{
			SID:       3,
			Curve:     curveAt(16 << 10),
			Acc:       map[int]uint64{0: 50},
			ReadOnly:  true,
			Affine:    true,
			Footprint: 16 << 10,
		},
	}
}

func testModel() CostModel {
	return CostModel{
		RowBytes:  2048,
		DramHitNS: 30,
		MissNS:    500,
		NetNS:     func(u, v int) float64 { return 10 * float64(abs(u-v)) },
		HitPJ:     100,
		MissPJ:    1000,
	}
}

func TestParseArms(t *testing.T) {
	arms, err := ParseArms("")
	if err != nil {
		t.Fatalf("default arms: %v", err)
	}
	var names []string
	for _, a := range arms {
		names = append(names, a.Name())
	}
	if got, want := strings.Join(names, ","), DefaultArms; got != want {
		t.Fatalf("default arms = %s, want %s", got, want)
	}
	if _, err := ParseArms("paper,PAPER"); err == nil {
		t.Fatal("duplicate arm accepted")
	}
	if _, err := ParseArms("bogus"); err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("unknown arm error = %v, want valid-arm list", err)
	}
	if _, err := ParseArms(" Greedy , static "); err != nil {
		t.Fatalf("whitespace/case arm list rejected: %v", err)
	}
}

// TestArmsProduceValidAllocations checks every arm against the remap
// table's structural rules: bit widths, per-unit capacity, writable
// streams single-group, dead units empty.
func TestArmsProduceValidAllocations(t *testing.T) {
	cfg := testConfig()
	cfg.DeadUnits = []int{3}
	ins := testInputs()
	arms, _ := ParseArms("")
	for _, arm := range arms {
		allocs, err := arm.Decide(cfg, ins)
		if err != nil {
			t.Fatalf("%s: %v", arm.Name(), err)
		}
		used := make([]uint64, cfg.NumUnits)
		for sid, a := range allocs {
			if err := a.Validate(cfg.NumUnits); err != nil {
				t.Fatalf("%s stream %d: %v", arm.Name(), sid, err)
			}
			for u, s := range a.Shares {
				used[u] += uint64(s)
			}
			if a.Shares[3] != 0 {
				t.Errorf("%s stream %d: rows on dead unit 3", arm.Name(), sid)
			}
		}
		for u, n := range used {
			if n > uint64(cfg.UnitRows) {
				t.Errorf("%s: unit %d overcommitted: %d rows > %d", arm.Name(), u, n, cfg.UnitRows)
			}
		}
		// Writable stream 2 must stay single-group.
		if a, ok := allocs[2]; ok {
			if g := a.GroupIDs(); len(g) > 1 {
				t.Errorf("%s: writable stream got %d groups", arm.Name(), len(g))
			}
		}
	}
}

// TestReplicateArmReplicates checks the replication-heavy arm actually
// gives the hot read-only stream one group per accessor.
func TestReplicateArmReplicates(t *testing.T) {
	cfg := testConfig()
	allocs, err := (replicateArm{}).Decide(cfg, testInputs())
	if err != nil {
		t.Fatal(err)
	}
	a := allocs[1]
	if got := len(a.GroupIDs()); got != 4 {
		t.Fatalf("read-only stream groups = %d, want 4 (one per accessor); alloc %+v", got, a)
	}
}

func TestScoreFavorsMoreCapacity(t *testing.T) {
	m := testModel()
	ins := testInputs()[:1]
	small := map[stream.ID]streamcache.Allocation{1: alloc(4, [4]uint32{1, 0, 0, 0})}
	big := map[stream.ID]streamcache.Allocation{1: alloc(4, [4]uint32{16, 16, 0, 0})}
	sSmall, sBig := m.Score(ins, small), m.Score(ins, big)
	if !(sBig < sSmall) {
		t.Fatalf("bigger allocation should score lower: big=%g small=%g", sBig, sSmall)
	}
	none := m.Score(ins, nil)
	if none <= sSmall {
		t.Fatalf("no allocation should be worst: none=%g small=%g", none, sSmall)
	}
	// All-miss score includes the energy tie-break term when weighted.
	m.EnergyWeight = 0.001
	if got, want := m.Score(ins, nil), m.MissNS+0.001*m.MissPJ; math.Abs(got-want) > 1e-9 {
		t.Fatalf("all-miss score = %g, want %g", got, want)
	}
}

func alloc(n int, shares [4]uint32) streamcache.Allocation {
	a := streamcache.NewAllocation(n)
	copy(a.Shares, shares[:])
	return a
}

func TestMovedRows(t *testing.T) {
	old := map[stream.ID]streamcache.Allocation{1: alloc(4, [4]uint32{8, 8, 0, 0})}
	// Same rows: nothing moves.
	if got := MovedRows(old, old); got != 0 {
		t.Fatalf("identity moved %d rows", got)
	}
	// Growth counts the delta.
	grown := map[stream.ID]streamcache.Allocation{1: alloc(4, [4]uint32{8, 16, 4, 0})}
	if got := MovedRows(old, grown); got != 12 {
		t.Fatalf("growth moved %d rows, want 12", got)
	}
	// A group change refills retained rows.
	regrouped := map[stream.ID]streamcache.Allocation{1: alloc(4, [4]uint32{8, 8, 0, 0})}
	a := regrouped[1]
	a.Groups[1] = 1
	regrouped[1] = a
	if got := MovedRows(old, regrouped); got != 8 {
		t.Fatalf("regroup moved %d rows, want 8", got)
	}
	// A brand-new stream is all new rows.
	if got := MovedRows(nil, old); got != 16 {
		t.Fatalf("fresh install moved %d rows, want 16", got)
	}
}

func TestBanditDeterminism(t *testing.T) {
	run := func(seed uint64) []int {
		b := newBandit(3, 0.8, 4, seed)
		var picks []int
		for i := 0; i < 50; i++ {
			b.update([]float64{0.2, 0.9, 0.5})
			picks = append(picks, b.sample())
		}
		return picks
	}
	if !reflect.DeepEqual(run(7), run(7)) {
		t.Fatal("same seed produced different pick sequences")
	}
	if reflect.DeepEqual(run(7), run(8)) {
		t.Fatal("different seeds produced identical pick sequences (suspicious)")
	}
}

func TestBanditConvergesAndTracksPhaseChange(t *testing.T) {
	b := newBandit(3, 0.8, 4, 1)
	count := make([]int, 3)
	for i := 0; i < 60; i++ {
		b.update([]float64{0.1, 0.95, 0.3})
		count[b.sample()]++
	}
	if count[1] < 40 {
		t.Fatalf("bandit did not converge on the best arm: picks %v", count)
	}
	// Phase change: arm 0 becomes best; the discounted posterior must
	// swing within a bounded number of epochs.
	swung := -1
	for i := 0; i < 30; i++ {
		b.update([]float64{0.95, 0.1, 0.3})
		if b.sample() == 0 && swung < 0 {
			swung = i
		}
	}
	if swung < 0 || swung > 15 {
		t.Fatalf("bandit failed to track phase change (first pick of new best at %d)", swung)
	}
}

func TestControllerDeterminismAndSwitching(t *testing.T) {
	run := func(seed uint64) ([]string, float64) {
		c, err := New(Params{}, seed, testModel())
		if err != nil {
			t.Fatal(err)
		}
		live := map[stream.ID]streamcache.Allocation{}
		var armsSeen []string
		for epoch := 0; epoch < 12; epoch++ {
			d, err := c.Decide(testConfig(), testInputs(), live, 10_000)
			if err != nil {
				t.Fatal(err)
			}
			armsSeen = append(armsSeen, d.Arm)
			live = d.Allocs
			if len(d.Scores) != 4 || len(d.Means) != 4 {
				t.Fatalf("scores/means sized %d/%d, want 4", len(d.Scores), len(d.Means))
			}
		}
		return armsSeen, c.ModeledAMATNS()
	}
	a1, amat1 := run(7)
	a2, amat2 := run(7)
	if !reflect.DeepEqual(a1, a2) || amat1 != amat2 {
		t.Fatalf("same seed diverged: %v (%g) vs %v (%g)", a1, amat1, a2, amat2)
	}
	if amat1 <= 0 {
		t.Fatalf("modeled AMAT = %g, want > 0", amat1)
	}
}

func TestControllerSingleArmNeverSwitches(t *testing.T) {
	c, err := New(Params{Arms: "static"}, 3, testModel())
	if err != nil {
		t.Fatal(err)
	}
	live := map[stream.ID]streamcache.Allocation{}
	for epoch := 0; epoch < 8; epoch++ {
		d, err := c.Decide(testConfig(), testInputs(), live, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if d.Arm != "static" || d.Switched {
			t.Fatalf("single-arm controller switched: %+v", d)
		}
		live = d.Allocs
	}
	if c.Switches() != 0 {
		t.Fatalf("switches = %d, want 0", c.Switches())
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{}).Validate(); err != nil {
		t.Fatalf("zero params invalid: %v", err)
	}
	if err := (Params{Arms: "nope"}).Validate(); err == nil {
		t.Fatal("unknown arm accepted")
	}
}
