package policy

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"ndpext/internal/sampler"
	"ndpext/internal/stream"
)

// meshAtt returns an attenuation function for units on a cols-wide 2-D
// mesh: utility falls with Manhattan distance as DRAM latency over DRAM
// plus hop latency would.
func meshAtt(cols int) func(u, v int) float64 {
	return func(u, v int) float64 {
		dx := u%cols - v%cols
		dy := u/cols - v/cols
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return 1 / (1 + 0.15*float64(dx+dy))
	}
}

// kneeCurve builds a 64-point sampler-shaped curve between minB and maxB
// whose miss rate falls from 1 to floor by capacity ws, with noise
// folded into a non-increasing shape as the sampler's fit would leave it.
func kneeCurve(rng *rand.Rand, minB, maxB, ws int64, floor float64, accesses uint64) sampler.Curve {
	c := sampler.Curve{ItemBytes: 64, Accesses: accesses}
	ratio := math.Pow(float64(maxB)/float64(minB), 1.0/63)
	prev := 1.0
	for i := 0; i < 64; i++ {
		b := int64(float64(minB) * math.Pow(ratio, float64(i)))
		f := math.Log(float64(b)/float64(minB)) / math.Log(float64(ws)/float64(minB))
		mr := math.Max(floor, 1-(1-floor)*f) + 0.02*rng.Float64()
		mr = math.Min(prev, mr)
		prev = mr
		c.Points = append(c.Points, sampler.CurvePoint{Bytes: b, MissRate: mr, Sampled: 100})
	}
	return c
}

// randomProfile builds an epoch profile shaped like the simulator's at
// model scale (2 kB rows, 128 rows per unit, 4-row segments, an 8-row
// affine cap, curves from 4 kB to 8 units): read-only streams with
// per-core reuse replicate widely, so capacity runs out and the extend
// and merge paths of Algorithm 1 run.
func randomProfile(rng *rand.Rand, units, streams int) (Config, []StreamInput) {
	cfg := Config{
		NumUnits:      units,
		RowBytes:      2048,
		UnitRows:      128,
		AffineCapRows: 8,
		SegRows:       4,
		Attenuation:   meshAtt(16),
		MaxGroups:     64,
		MaxIters:      200_000,
		MissLatNS:     500,
		NetLatNS:      func(d int) float64 { return 60 / math.Sqrt(float64(d)) },
	}
	unitB := int64(cfg.UnitRows) * int64(cfg.RowBytes)
	minB, maxB := int64(4<<10), 8*unitB
	ins := make([]StreamInput, streams)
	for i := range ins {
		acc := map[int]uint64{}
		n := 1 + rng.IntN(units)
		var total uint64
		for _, u := range rng.Perm(units)[:n] {
			a := uint64(100 + rng.IntN(5000))
			acc[u] = a
			total += a
		}
		ws := minB << rng.IntN(8)
		ro := rng.IntN(4) != 0
		in := StreamInput{
			SID:       stream.ID(i + 1),
			Curve:     kneeCurve(rng, minB, maxB, ws, 0.05*rng.Float64(), total),
			Acc:       acc,
			ReadOnly:  ro,
			Affine:    rng.IntN(3) == 0,
			Footprint: ws * int64(1+rng.IntN(4)),
		}
		if ro {
			// Per-core reuse: the local curve reaches its floor early.
			in.LocalCurve = kneeCurve(rng, minB, maxB, max(minB*2, ws/int64(1+rng.IntN(16))), 0.1, total/uint64(n))
		}
		ins[i] = in
	}
	return cfg, ins
}

// TestCurveEvalBitExact checks curveEval against Curve.MissRateAt under
// math.Float64bits over random curves (duplicate capacities, 1-point
// curves, FlatCurve and the empty curve) at capacities on, between and
// outside the points.
func TestCurveEvalBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 29))
	curves := []sampler.Curve{{}, sampler.FlatCurve(64, 1000)}
	for i := 0; i < 300; i++ {
		n := 1 + rng.IntN(64)
		if i%5 == 0 {
			n = 1
		}
		c := sampler.Curve{ItemBytes: 64, Accesses: 1000}
		b := int64(1 + rng.IntN(1<<12))
		for j := 0; j < n; j++ {
			if j > 0 && rng.IntN(4) != 0 { // one in four repeats the capacity
				b += 1 + rng.Int64N(b)
			}
			c.Points = append(c.Points, sampler.CurvePoint{Bytes: b, MissRate: rng.Float64()})
		}
		curves = append(curves, c)
	}
	for ci, c := range curves {
		e := newCurveEval(c)
		check := func(bytes int64) {
			t.Helper()
			if got, want := e.missRateAt(bytes), c.MissRateAt(bytes); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("curve %d at %d: eval %v (%#x), MissRateAt %v (%#x)",
					ci, bytes, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		for _, q := range []int64{-1, 0, 1, 2, math.MaxInt64} {
			check(q)
		}
		for j, p := range c.Points {
			check(p.Bytes - 1)
			check(p.Bytes)
			check(p.Bytes + 1)
			if j > 0 {
				a := c.Points[j-1].Bytes
				check(a + (p.Bytes-a)/2)
				check(a + rng.Int64N(p.Bytes-a+1))
			}
		}
		if n := len(c.Points); n > 0 {
			last := c.Points[n-1].Bytes
			check(2 * last)
			for j := 0; j < 50; j++ {
				check(1 + rng.Int64N(last+1))
			}
		}
	}
}

// TestJumpMemoMatchesFresh runs Algorithm 1's loop on random profiles
// and, after every round, checks each live group's memoized lookahead
// against a fresh groupJump and each stream's live count against its
// groups, so a path that changes a group's inputs without clearing its
// memo fails here rather than as a silently different allocation.
func TestJumpMemoMatchesFresh(t *testing.T) {
	merges := 0
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		cfg, ins := randomProfile(rng, 32, 12)
		o := newOptimizer(cfg, ins)
		for o.rep.Iterations < cfg.MaxIters {
			s := o.nextSteepest()
			if s == nil {
				break
			}
			o.rep.Iterations++
			o.allocateRound(s)
			for _, s := range o.streams {
				if s.live != len(s.liveGroups()) {
					t.Fatalf("seed %d round %d stream %d: live = %d, %d groups alive",
						seed, o.rep.Iterations, s.in.SID, s.live, len(s.liveGroups()))
				}
				for gi, g := range s.liveGroups() {
					if !g.jumpOK {
						continue
					}
					jump, slope := o.groupJump(s, g)
					if g.jump != jump || math.Float64bits(g.slope) != math.Float64bits(slope) {
						t.Fatalf("seed %d round %d stream %d group %d: memo (%d, %v), fresh (%d, %v)",
							seed, o.rep.Iterations, s.in.SID, gi, g.jump, g.slope, jump, slope)
					}
				}
			}
		}
		merges += o.rep.Merges
	}
	if merges == 0 {
		t.Fatal("no profile merged groups; the memo's merge invalidation went untested")
	}
}

// BenchmarkOptimize times one Algorithm 1 solve on a 128-unit machine
// with 16 streams of 64-point curves, most of them replicated read-only
// streams, so the lookahead, extend and merge paths all run.
func BenchmarkOptimize(b *testing.B) {
	cfg, ins := randomProfile(rand.New(rand.NewPCG(1, 2)), 128, 16)
	b.ReportAllocs()
	b.ResetTimer()
	var rep Report
	for i := 0; i < b.N; i++ {
		var err error
		if _, rep, err = Optimize(cfg, ins); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Iterations), "rounds")
	b.ReportMetric(float64(rep.Merges), "merges")
	b.ReportMetric(float64(rep.Extends), "extends")
}

// TestMergeRefundsOwnerBudget: an affine stream's allocation is blocked
// at unit 0, and the only merge candidate holding rows there belongs to
// a non-affine stream. The merge frees that stream's rows but must not
// refund them to the affine budget, so the pending affine allocation
// still finds no budget.
func TestMergeRefundsOwnerBudget(t *testing.T) {
	cfg := testCfg(4, 16)
	cfg.AffineCapRows = 8
	o := newOptimizer(cfg, nil)
	aff := &st{in: &StreamInput{SID: 1, Affine: true, Acc: map[int]uint64{0: 5}}, live: 1}
	gS := &grp{rows: map[int]uint32{0: 8}, accessors: []int{0}, anchor: 0}
	aff.groups = []*grp{gS}
	other := &st{in: &StreamInput{SID: 2, ReadOnly: true, Acc: map[int]uint64{0: 10, 1: 1000, 2: 10, 3: 5}}, live: 2}
	gT1 := &grp{rows: map[int]uint32{0: 8}, accessors: []int{0, 1}, anchor: 1}
	gT2 := &grp{rows: map[int]uint32{2: 8}, accessors: []int{2, 3}, anchor: 2}
	other.groups = []*grp{gT1, gT2}
	o.streams = []*st{aff, other}
	// Unit 0 holds both streams' rows; units 1 and 3 are full; unit 2
	// has free rows but too little affine budget for a segment.
	o.free = []int64{0, 0, 8, 0}
	o.affineFree = []int64{0, 8, 3, 8}
	o.rep.RowsAllocated = 24

	if o.extendOrMerge(aff, gS, 4) {
		t.Fatal("affine allocation succeeded with no affine budget left at any unit")
	}
	if o.rep.Merges != 1 || !gT2.dead || other.live != 1 {
		t.Fatalf("merges %d, gT2 dead %v, live %d; want the non-affine pair merged", o.rep.Merges, gT2.dead, other.live)
	}
	if want := []int64{4, 0, 12, 0}; !slices.Equal(o.free, want) {
		t.Fatalf("free = %v, want %v", o.free, want)
	}
	if want := []int64{0, 8, 3, 8}; !slices.Equal(o.affineFree, want) {
		t.Fatalf("affineFree = %v, want %v: a non-affine merge refunded the affine budget", o.affineFree, want)
	}
}
