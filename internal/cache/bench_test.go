package cache

import (
	"testing"

	"ndpext/internal/sim"
)

// BenchmarkAccess measures one Access on the simulator's two cache
// geometries: an NDP core's L1 (2 kB, 4 ways, 64 B lines) and a NUCA
// unit's metadata cache (16384 one-entry lines, 8 ways), each over a
// fixed random address sequence that mixes hits, misses and writes.
func BenchmarkAccess(b *testing.B) {
	for _, g := range []struct {
		name              string
		size, line, assoc int
		span              int // distinct lines the addresses cover
	}{
		{"L1", 2048, 64, 4, 96},
		{"Meta", 16384, 1, 8, 24576},
	} {
		b.Run(g.name, func(b *testing.B) {
			c := New(g.size, g.line, g.assoc)
			rng := sim.NewRNG(1)
			addrs := make([]uint64, 1<<16)
			for i := range addrs {
				addrs[i] = uint64(rng.Intn(g.span))*uint64(g.line)<<1 | uint64(rng.Intn(4)/3)
			}
			for _, a := range addrs {
				c.Access(a>>1, a&1 != 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i&(len(addrs)-1)]
				c.Access(a>>1, a&1 != 0)
			}
		})
	}
}
