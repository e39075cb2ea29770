package nuca

import (
	"maps"
	"testing"

	"ndpext/internal/policy"
	"ndpext/internal/sampler"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
)

// sizeByLookaheadReference is sizeByLookahead as first written: every
// greedy step evaluates every stream's curve at its current size and at
// each of its points.
func sizeByLookaheadReference(in policy.Config, streams []policy.StreamInput, degreeOf func(policy.StreamInput) int) map[stream.ID]uint64 {
	totalRows := uint64(in.NumUnits) * uint64(in.UnitRows)
	reserve := uint64(in.NumUnits) * uint64(miscRows(in.UnitRows))
	if totalRows > reserve {
		totalRows -= reserve
	}
	rows := make(map[stream.ID]uint64)
	type cand struct {
		idx   int
		slope float64
		jump  uint64
	}
	var used uint64
	for {
		best := cand{idx: -1}
		for i := range streams {
			s := &streams[i]
			acc := totalAcc(*s)
			if acc == 0 {
				continue
			}
			deg := 1
			if degreeOf != nil {
				deg = degreeOf(*s)
			}
			cur := int64(rows[s.SID]) * int64(in.RowBytes) / int64(deg)
			mrCur := s.Curve.MissRateAt(cur)
			for _, p := range s.Curve.Points {
				if p.Bytes <= cur {
					continue
				}
				d := mrCur - s.Curve.MissRateAt(p.Bytes)
				if d <= 0 {
					continue
				}
				jumpRows := uint64((p.Bytes-cur)*int64(deg)+int64(in.RowBytes)-1) / uint64(in.RowBytes)
				if jumpRows == 0 || used+jumpRows > totalRows {
					continue
				}
				slope := float64(acc) * d / float64(jumpRows)
				if slope > best.slope {
					best = cand{idx: i, slope: slope, jump: jumpRows}
				}
			}
		}
		if best.idx < 0 {
			return rows
		}
		rows[streams[best.idx].SID] += best.jump
		used += best.jump
	}
}

// TestSizeByLookaheadMatchesReference checks the memoized lookahead
// against the reference on random curves. Miss rates are multiples of
// 1/8 and access counts few, so equal slopes are common and the tie
// order is exercised; the curves are not always monotone.
func TestSizeByLookaheadMatchesReference(t *testing.T) {
	rng := sim.NewRNG(29)
	for trial := 0; trial < 2000; trial++ {
		in := confIn(1+rng.Intn(16), uint32(8+rng.Intn(256)))
		streams := make([]policy.StreamInput, 1+rng.Intn(12))
		for i := range streams {
			var c sampler.Curve
			bytes := int64(0)
			for range rng.Intn(8) {
				bytes += int64(1+rng.Intn(64)) * 1024
				c.Points = append(c.Points, sampler.CurvePoint{Bytes: bytes, MissRate: float64(rng.Intn(9)) / 8})
			}
			acc := map[int]uint64{}
			for range rng.Intn(3) {
				acc[rng.Intn(in.NumUnits)] += uint64(rng.Intn(4))
			}
			streams[i] = policy.StreamInput{SID: stream.ID(i + 1), ReadOnly: rng.Intn(2) == 0, Curve: c, Acc: acc}
		}
		var degreeOf func(policy.StreamInput) int
		if deg := 1 << rng.Intn(4); deg > 1 {
			degreeOf = func(s policy.StreamInput) int {
				if s.ReadOnly {
					return deg
				}
				return 1
			}
		}
		got, want := sizeByLookahead(in, streams, degreeOf), sizeByLookaheadReference(in, streams, degreeOf)
		if !maps.Equal(got, want) {
			t.Fatalf("trial %d: rows %v, reference %v", trial, got, want)
		}
	}
}
