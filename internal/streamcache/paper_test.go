package streamcache

import (
	"testing"

	"ndpext/internal/stream"
)

// TestFig3CachingScheme reproduces the worked remapping example of paper
// Fig. 3: stream A has cache space in four NDP units organized as two
// replication groups (0,1) and (2,3); with RShares = (8, 6, 4, 2) the
// first two units hold 8 and 6 rows as group 0 and the next two hold 4
// and 2 rows as group 1. Accesses from units 0/1 must be served within
// group 0, accesses from units 2/3 within group 1, and both groups must
// independently cache copies of the same data.
func TestFig3CachingScheme(t *testing.T) {
	tbl := stream.NewTable()
	a, err := stream.Configure(1, stream.Indirect, 0x100000, 64<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(a); err != nil {
		t.Fatal(err)
	}
	c := NewController(DefaultParams(), 4, tbl, false)

	alloc := NewAllocation(4)
	alloc.Shares = []uint32{8, 6, 4, 2}
	alloc.Groups = []uint8{0, 0, 1, 1}
	if _, err := c.Apply(map[stream.ID]Allocation{1: alloc}); err != nil {
		t.Fatal(err)
	}

	if got := alloc.GroupRows(0); got != 14 {
		t.Fatalf("group 0 rows = %d, want 14 (8+6)", got)
	}
	if got := alloc.GroupRows(1); got != 6 {
		t.Fatalf("group 1 rows = %d, want 6 (4+2)", got)
	}

	// Requests from each unit stay inside that unit's replication group.
	for e := uint64(0); e < 2000; e++ {
		addr := a.Base + e*4
		if r := lookup(c, 0, addr, false); r.Home != 0 && r.Home != 1 {
			t.Fatalf("group-0 access served by unit %d", r.Home)
		}
		if r := lookup(c, 2, addr, false); r.Home != 2 && r.Home != 3 {
			t.Fatalf("group-1 access served by unit %d", r.Home)
		}
	}
	// Both groups hold independent copies: residency exists on both sides.
	left := c.ResidentItems(0, 1) + c.ResidentItems(1, 1)
	right := c.ResidentItems(2, 1) + c.ResidentItems(3, 1)
	if left == 0 || right == 0 {
		t.Fatalf("replication groups not independent: left=%d right=%d", left, right)
	}
	// The uneven shares must show in the within-group distribution.
	if c.ResidentItems(0, 1) <= c.ResidentItems(1, 1)/2 {
		t.Fatalf("8:6 shares but resident %d vs %d", c.ResidentItems(0, 1), c.ResidentItems(1, 1))
	}
}

// TestSLBExampleFromFig3c mirrors Fig. 3(c): looking up an address inside
// a configured stream identifies the stream and its element ID from the
// base and element size.
func TestSLBExampleFromFig3c(t *testing.T) {
	tbl := stream.NewTable()
	// The paper's example address 0x5CA1AB00 inside stream 0x1 with
	// element ID 44: build an analogous stream where base + 44*elemSize
	// equals the probe address.
	const elem = 8
	base := uint64(0x5CA1AB00) - 44*elem
	s, err := stream.Configure(1, stream.Indirect, base, 4096*elem, elem)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(s); err != nil {
		t.Fatal(err)
	}
	c := NewController(DefaultParams(), 2, tbl, false)
	alloc := NewAllocation(2)
	alloc.Shares = []uint32{8, 6}
	if _, err := c.Apply(map[stream.ID]Allocation{1: alloc}); err != nil {
		t.Fatal(err)
	}
	r := lookup(c, 0, 0x5CA1AB00, false)
	if r.SID != 1 {
		t.Fatalf("address resolved to stream %d", r.SID)
	}
	if r.ItemID != 44 {
		t.Fatalf("element ID = %d, want 44", r.ItemID)
	}
}

// TestRemapRowBaseAddressing verifies that the DRAM row served for an
// item is RRowBase[unit] + the consistent-hash ordinal, as in §IV-C's
// final address computation step.
func TestRemapRowBaseAddressing(t *testing.T) {
	tbl := stream.NewTable()
	s, _ := stream.Configure(1, stream.Indirect, 0x1000, 4096, 4)
	if err := tbl.Add(s); err != nil {
		t.Fatal(err)
	}
	c := NewController(DefaultParams(), 2, tbl, false)
	alloc := NewAllocation(2)
	alloc.Shares = []uint32{4, 4}
	alloc.RowBase = []uint32{100, 200}
	if _, err := c.Apply(map[stream.ID]Allocation{1: alloc}); err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 512; e++ {
		r := lookup(c, 0, 0x1000+e*4, false)
		lo := int64(alloc.RowBase[r.Home])
		if r.HomeRow < lo || r.HomeRow >= lo+int64(alloc.Shares[r.Home]) {
			t.Fatalf("home row %d outside unit %d's range [%d, %d)",
				r.HomeRow, r.Home, lo, lo+int64(alloc.Shares[r.Home]))
		}
	}
}

// TestSLBThrashingManyStreams: with more streams than SLB entries per
// unit, the SLB must keep working (LRU) with a degraded hit rate, never
// wrong results.
func TestSLBThrashingManyStreams(t *testing.T) {
	tbl := stream.NewTable()
	p := DefaultParams()
	const streams = 48 // > 32 SLB entries
	for i := 0; i < streams; i++ {
		s, err := stream.Configure(stream.ID(i+1), stream.Indirect, uint64(i+1)<<22, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	c := NewController(p, 1, tbl, false)
	allocs := map[stream.ID]Allocation{}
	for i := 0; i < streams; i++ {
		a := NewAllocation(1)
		a.Shares[0] = 2
		a.RowBase[0] = uint32(i * 2)
		allocs[stream.ID(i+1)] = a
	}
	if _, err := c.Apply(allocs); err != nil {
		t.Fatal(err)
	}
	// Round-robin over all streams: every SLB access misses after warmup.
	for round := 0; round < 3; round++ {
		for i := 0; i < streams; i++ {
			r := lookup(c, 0, uint64(i+1)<<22, false)
			if r.SID != stream.ID(i+1) {
				t.Fatalf("wrong stream resolved: %d", r.SID)
			}
		}
	}
	st := c.Stats()
	if st.SLBMisses <= uint64(streams) {
		t.Fatalf("SLB misses = %d; thrashing workload should keep missing", st.SLBMisses)
	}
}

// TestUnitSRAMBudget checks the §VI SRAM inventory: 4544 B SLB + 64 kB
// ATA + 32 kB samplers + 64 B bitvector, totalling well under the 128 kB
// metadata cache the baselines get for fairness.
func TestUnitSRAMBudget(t *testing.T) {
	slb, ata, samplers, bitvector, total := UnitSRAMBytes()
	if slb != 4544 {
		t.Errorf("SLB = %d B, want 4544", slb)
	}
	if ata != 64<<10 {
		t.Errorf("ATA = %d B, want 64 kB", ata)
	}
	if samplers != 32<<10 {
		t.Errorf("samplers = %d B, want 32 kB", samplers)
	}
	if bitvector != 64 {
		t.Errorf("bitvector = %d B, want 64", bitvector)
	}
	if total >= 128<<10 {
		t.Errorf("total per-unit SRAM %d B exceeds the baselines' 128 kB metadata cache", total)
	}
}
