package streamcache

import (
	"testing"

	"ndpext/internal/sim"
	"ndpext/internal/stream"
)

// The benchmark machine: the simulator's default 128 units.
const benchUnits = 128

// benchStreams: sid 1 is a writable affine stream of 8 MB, sid 2 a
// read-only indirect stream of 4 MB of 4-byte elements.
var benchStreams = [2]uint64{0x1000000, 0x2000000}

// benchAllocs returns the benchmarks' two allocations: sid 1 spread over
// every unit in one group, and sid 2 replicated into eight groups of 16
// units. shift moves sid 1's rows by one unit, a changed allocation.
func benchAllocs(shift int) map[stream.ID]Allocation {
	spread := NewAllocation(benchUnits)
	for u := range spread.Shares {
		spread.Shares[(u+shift)%benchUnits] = uint32(16 + u%3)
	}
	groups := NewAllocation(benchUnits)
	for u := range groups.Shares {
		groups.Shares[u], groups.RowBase[u], groups.Groups[u] = 48, 20, uint8(u/16)
	}
	return map[stream.ID]Allocation{1: spread, 2: groups}
}

// benchController builds a consistent-hashing controller with both
// allocations installed and returns it with a fixed random access
// sequence: 45% affine, 45% indirect, 10% non-stream; one in four affine
// accesses writes.
func benchController(b *testing.B) (*Controller, []uint64, []int) {
	b.Helper()
	tbl := stream.NewTable()
	aff, err := stream.Configure(1, stream.Affine, benchStreams[0], 8<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	aff.ReadOnly = false
	ind, err := stream.Configure(2, stream.Indirect, benchStreams[1], 4<<20, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []*stream.Stream{aff, ind} {
		if err := tbl.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	c := NewController(DefaultParams(), benchUnits, tbl, true)
	if _, err := c.Apply(benchAllocs(0)); err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	addrs, units := make([]uint64, 1<<16), make([]int, 1<<16)
	for i := range addrs {
		switch r := rng.Intn(20); {
		case r < 9:
			addrs[i] = benchStreams[0] + uint64(rng.Intn(8<<20))&^3
			if rng.Intn(4) == 0 {
				addrs[i] |= 1 // odd: a write
			}
		case r < 18:
			addrs[i] = benchStreams[1] + uint64(rng.Intn(4<<20))&^3
		default:
			addrs[i] = 0x4000000 + uint64(rng.Intn(1<<20))&^3
		}
		units[i] = rng.Intn(benchUnits)
	}
	return c, addrs, units
}

// BenchmarkLookup measures one Lookup on the 128-unit machine with the
// residency tables warm.
func BenchmarkLookup(b *testing.B) {
	c, addrs, units := benchController(b)
	var r Lookup
	for i := range addrs {
		c.Lookup(units[i], addrs[i], addrs[i]&1 != 0, &r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(addrs) - 1)
		c.Lookup(units[j], addrs[j], addrs[j]&1 != 0, &r)
	}
}

// BenchmarkApply measures one reconfiguration that changes sid 1's
// allocation under consistent hashing while sid 2 keeps its items.
func BenchmarkApply(b *testing.B) {
	c, addrs, units := benchController(b)
	var r Lookup
	for i := range addrs {
		c.Lookup(units[i], addrs[i], addrs[i]&1 != 0, &r)
	}
	allocs := [2]map[stream.ID]Allocation{benchAllocs(1), benchAllocs(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Apply(allocs[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocate measures one home lookup on the rings of the
// benchmark allocations: sid 1's 2,175 spots over all 128 units and one
// of sid 2's 16-unit groups of 768 spots, with random item IDs.
func BenchmarkLocate(b *testing.B) {
	allocs := benchAllocs(0)
	rings := [2]*ring{buildRing(1, allocs[1], 0), buildRing(2, allocs[2], 0)}
	rng := sim.NewRNG(1)
	ids := make([]uint64, 1<<12)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locateSink = rings[i&1].locate(stream.ID(1+i&1), ids[i&(len(ids)-1)])
	}
}

// locateSink keeps BenchmarkLocate's calls from being optimized away.
var locateSink spot
