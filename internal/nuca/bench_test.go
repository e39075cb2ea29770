package nuca

import (
	"testing"

	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// The benchmark machine: the simulator's default 128 units of 128 rows.
const benchUnits, benchRows = 128, 128

// benchStreams are the bases of the benchmarks' two 8 MB streams.
var benchStreams = [2]uint64{0x1000000, 0x2000000}

// benchAllocs returns the benchmarks' two partitions: sid 1 spread over
// every unit (Jigsaw's shared partition), sid 2 replicated into eight
// contiguous groups with the shares on each group's first half (Nexus).
// shift moves sid 1's rows by one unit, a changed allocation.
func benchAllocs(shift int) map[stream.ID]streamcache.Allocation {
	spread := streamcache.NewAllocation(benchUnits)
	for u := range spread.Shares {
		spread.Shares[(u+shift)%benchUnits] = uint32(48 + u%3)
	}
	groups := streamcache.NewAllocation(benchUnits)
	for g, us := range clusterUnits(benchUnits, 8) {
		for i, u := range us {
			groups.Groups[u] = uint8(g)
			if i < len(us)/2 {
				groups.Shares[u] = 64
				groups.RowBase[u] = 50
			}
		}
	}
	return map[stream.ID]streamcache.Allocation{1: spread, 2: groups}
}

// benchController builds a Nexus controller with both partitions
// installed and returns it with a fixed random access sequence: 80%
// stream lines, 20% non-stream lines, one in four a write.
func benchController(b *testing.B) (*Controller, []uint64, []int) {
	b.Helper()
	tbl := stream.NewTable()
	for i, base := range benchStreams {
		s, err := stream.Configure(stream.ID(i+1), stream.Affine, base, 8<<20, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	c := NewController(Nexus, DefaultParams(), benchUnits, benchRows, tbl)
	if _, err := c.Apply(benchAllocs(0)); err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	addrs, units := make([]uint64, 1<<16), make([]int, 1<<16)
	for i := range addrs {
		base := uint64(0x4000000) // non-stream
		if r := rng.Intn(10); r < 8 {
			base = benchStreams[r%2]
		}
		addrs[i] = base + uint64(rng.Intn(8<<20))&^3
		if rng.Intn(4) == 0 {
			addrs[i] |= 1 // odd: a write
		}
		units[i] = rng.Intn(benchUnits)
	}
	return c, addrs, units
}

// BenchmarkLookup measures one Lookup on the 128-unit machine with the
// line tables warm.
func BenchmarkLookup(b *testing.B) {
	c, addrs, units := benchController(b)
	for i := range addrs {
		c.Lookup(units[i], addrs[i], addrs[i]&1 != 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(addrs) - 1)
		c.Lookup(units[j], addrs[j], addrs[j]&1 != 0)
	}
}

// BenchmarkApply measures one reconfiguration that changes sid 1's
// allocation while sid 2 and the non-stream partition keep their lines.
func BenchmarkApply(b *testing.B) {
	c, addrs, units := benchController(b)
	for i := range addrs {
		c.Lookup(units[i], addrs[i], addrs[i]&1 != 0)
	}
	allocs := [2]map[stream.ID]streamcache.Allocation{benchAllocs(1), benchAllocs(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Apply(allocs[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}
