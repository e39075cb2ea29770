package sim

import (
	"math/rand/v2"
	"testing"
)

// Ring geometry of BenchmarkResourceAcquire. The simulator keeps ~1,200
// resources live, whose ring storage totals 7-23 MB across the ndpbench
// cells, so most probes into a ring miss L2. Here 1,024 rings each hold
// about pruneWindow/benchSpacing = 3,000 intervals in 4,096-slot buffers
// (64 MB), so the benchmark pays those misses too, and the prune window
// keeps every ring below 4,096 intervals so nothing grows (0 allocs/op).
const (
	benchRings   = 1024
	benchSpacing = pruneWindow / 3000    // one interval per spacing on the tail
	benchDur     = benchSpacing * 9 / 10 // gaps are a tenth of the timeline
	benchFill    = benchSpacing / 10 / 4 // a reach-back request fills a quarter gap
	benchDraws   = 4093                  // prime, so each ring sees every draw
)

// BenchmarkResourceAcquire reserves round-robin across busy rings with
// arrivals drawn from the reach-back shape measured on real link traffic,
// as tailArrival draws them: 40% past the tail, 55% 1-16 intervals back,
// 5% 17-128 back.
func BenchmarkResourceAcquire(b *testing.B) {
	rings := make([]Resource, benchRings)
	for i := range rings {
		for j := Time(0); j < pruneWindow; j += benchSpacing {
			rings[i].Acquire(j, benchDur)
		}
	}
	type draw struct{ back, dur Time } // arrival = FreeAt() - back
	rng := rand.New(rand.NewPCG(7, 0xdecade))
	draws := make([]draw, benchDraws)
	for i := range draws {
		var k int64
		switch u := rng.IntN(100); {
		case u < 40:
			draws[i] = draw{-(benchSpacing - benchDur), benchDur}
			continue
		case u < 95:
			k = 1 + rng.Int64N(16)
		default:
			k = 17 + rng.Int64N(112)
		}
		draws[i] = draw{Time(k)*benchSpacing - Time(rng.Int64N(int64(benchSpacing))), benchFill}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &rings[i&(benchRings-1)]
		d := draws[i%benchDraws]
		r.Acquire(r.FreeAt()-d.back, d.dur)
	}
}
