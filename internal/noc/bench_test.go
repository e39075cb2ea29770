package noc

import (
	"testing"

	"ndpext/internal/sim"
)

// BenchmarkRoute measures one Route on the default 128-unit topology
// between random unit pairs, with messages issued 2 ns apart so the
// inter-stack links carry a steady load. The links run on a clock at
// each message's issue time, as in a simulation.
func BenchmarkRoute(b *testing.B) {
	n := New(DefaultConfig())
	var now sim.Time
	n.SetClock(&now)
	rng := sim.NewRNG(1)
	pairs := make([][2]int, 1<<12)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n.NumUnits()), rng.Intn(n.NumUnits())}
	}
	step := sim.FromNS(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		now = sim.Time(i) * step
		n.Route(now, p[0], p[1], 64)
	}
}
