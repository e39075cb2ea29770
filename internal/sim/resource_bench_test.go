package sim

import (
	"math/rand/v2"
	"testing"
)

// Geometry of BenchmarkResourceAcquire. The simulator keeps ~1,200
// resources on one clock; each event's access reserves a few of them
// at or somewhat after the event's time. Here the clock advances one
// benchStep per call, calls visit the resources round-robin, and each
// arrival lands up to benchAhead past the clock, so a resource sees one
// arrival per benchRes*benchStep at half utilization and holds 9 live
// intervals on average (at most 16), within the 7-15 measured on the
// ndpbench simulation cells.
const (
	benchRes   = 1200
	benchStep  = Time(1)
	benchDur   = benchRes * benchStep / 2  // half utilization
	benchAhead = 24 * benchRes * benchStep // arrivals up to 24 visits ahead
	benchDraws = 4093                      // prime, so each resource sees every draw
)

// BenchmarkResourceAcquire reserves round-robin across benchRes
// resources under a moving clock, arrivals drawn uniformly within
// benchAhead of the clock.
func BenchmarkResourceAcquire(b *testing.B) {
	var clock Time
	res := make([]Resource, benchRes)
	for i := range res {
		res[i].SetClock(&clock)
	}
	rng := rand.New(rand.NewPCG(7, 0xdecade))
	ahead := make([]Time, benchDraws)
	for i := range ahead {
		ahead[i] = Time(rng.Int64N(int64(benchAhead)))
	}
	acquire := func(i int) {
		clock += benchStep
		res[i%benchRes].Acquire(clock+ahead[i%benchDraws], benchDur)
	}
	for i := 0; i < 64*benchRes; i++ {
		acquire(i) // reach the steady live window before timing
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acquire(i)
	}
}
