package streamcache

import (
	"testing"
	"testing/quick"

	"ndpext/internal/sim"
	"ndpext/internal/stream"
)

// newTestController builds a 4-unit controller with one affine stream
// (sid 1, 64 kB of 8-byte elements) and one indirect stream (sid 2,
// 32 kB of 4-byte elements).
func newTestController(t *testing.T, ways int, consistent bool) (*Controller, *stream.Stream, *stream.Stream) {
	t.Helper()
	tbl := stream.NewTable()
	aff, err := stream.Configure(1, stream.Affine, 0x10000, 64<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := stream.Configure(2, stream.Indirect, 0x100000, 32<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(aff); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ind); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.IndirectWays = ways
	return NewController(p, 4, tbl, consistent), aff, ind
}

// evenAlloc gives sid `rows` rows on every unit, one global group.
func evenAlloc(units int, rows uint32) Allocation {
	a := NewAllocation(units)
	for u := range a.Shares {
		a.Shares[u] = rows
		a.RowBase[u] = 0
	}
	return a
}

// replicatedAlloc puts each unit in its own group (full replication).
func replicatedAlloc(units int, rows uint32) Allocation {
	a := evenAlloc(units, rows)
	for u := range a.Groups {
		a.Groups[u] = uint8(u)
	}
	return a
}

func install(t *testing.T, c *Controller, sid stream.ID, a Allocation) {
	t.Helper()
	if _, err := c.Apply(map[stream.ID]Allocation{sid: a}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapTableSizeMatchesPaper(t *testing.T) {
	if got := RemapTableBytes(512, 64); got != 160<<10 {
		t.Fatalf("remap table = %d bytes, want 160 kB", got)
	}
	if RemapEntryBits != 40 {
		t.Fatalf("entry = %d bits, want 40", RemapEntryBits)
	}
	if ATABytes != 64<<10 {
		t.Fatalf("ATA = %d bytes, want 64 kB", ATABytes)
	}
}

func TestBypassForNonStreamAddress(t *testing.T) {
	c, _, _ := newTestController(t, 1, false)
	r := lookup(c, 0, 0xDEAD0000, false)
	if !r.Bypass || r.SID != stream.NoStream {
		t.Fatalf("non-stream address not bypassed: %+v", r)
	}
	if c.Stats().Bypasses != 1 {
		t.Fatal("bypass not counted")
	}
}

func TestNoSpaceGoesToExtendedMemory(t *testing.T) {
	c, aff, _ := newTestController(t, 1, false)
	r := lookup(c, 0, aff.Base, false)
	if !r.NoSpace || r.Hit {
		t.Fatalf("unallocated stream access: %+v", r)
	}
	if r.FetchBytes != c.Params().BlockBytes {
		t.Fatalf("affine fetch = %d, want block %d", r.FetchBytes, c.Params().BlockBytes)
	}
}

func TestMissThenHitSameBlock(t *testing.T) {
	c, aff, _ := newTestController(t, 1, false)
	install(t, c, aff.SID, evenAlloc(4, 64))

	r1 := lookup(c, 0, aff.Base, false)
	if r1.Hit {
		t.Fatal("cold access hit")
	}
	if r1.FetchBytes != c.Params().BlockBytes {
		t.Fatalf("fetch = %d", r1.FetchBytes)
	}
	// Another element in the same 1 kB block must hit (prefetch effect).
	r2 := lookup(c, 0, aff.Base+512, false)
	if !r2.Hit {
		t.Fatal("same-block access missed")
	}
	if r2.Home != r1.Home || r2.HomeRow != r1.HomeRow {
		t.Fatal("same block mapped to different home")
	}
	// An element in a different block may miss.
	ss := c.StreamStatsFor(aff.SID)
	if ss.Hits != 1 || ss.Misses != 1 {
		t.Fatalf("stream stats %+v", ss)
	}
}

func TestIndirectElementGranularity(t *testing.T) {
	c, _, ind := newTestController(t, 1, false)
	install(t, c, ind.SID, evenAlloc(4, 64))

	r1 := lookup(c, 0, ind.Base, false)
	if r1.Hit || r1.FetchBytes != int(ind.ElemSize) {
		t.Fatalf("indirect cold access: %+v", r1)
	}
	if !lookup(c, 0, ind.Base, false).Hit {
		t.Fatal("repeat access missed")
	}
	// Neighbouring elements are cached individually: no prefetch.
	if lookup(c, 0, ind.Base+uint64(ind.ElemSize), false).Hit {
		t.Fatal("adjacent indirect element hit without fetch")
	}
}

func TestReplicationGroupsServeLocally(t *testing.T) {
	c, aff, _ := newTestController(t, 1, false)
	// Each unit its own group: every access is served from the local unit.
	install(t, c, aff.SID, replicatedAlloc(4, 64))
	for unit := 0; unit < 4; unit++ {
		for e := uint64(0); e < 32; e++ {
			r := lookup(c, unit, aff.Base+e*1024, false)
			if r.Home != unit {
				t.Fatalf("unit %d access served by unit %d despite full replication", unit, r.Home)
			}
		}
	}
	// Each group caches its own copy: the same block occupies space in
	// all four units after all four access it.
	total := 0
	for u := 0; u < 4; u++ {
		total += c.ResidentItems(u, aff.SID)
	}
	if total < 4 {
		t.Fatalf("replicated copies = %d resident items, want >= 4", total)
	}
}

func TestSharedGroupSpreadsByShares(t *testing.T) {
	c, _, ind := newTestController(t, 1, false)
	a := NewAllocation(4)
	a.Shares = []uint32{30, 10, 0, 0} // single group, uneven shares
	install(t, c, ind.SID, a)

	counts := map[int]int{}
	for e := uint64(0); e < 4096; e++ {
		r := lookup(c, 0, ind.Base+e*4, false)
		counts[r.Home]++
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("units without shares served accesses: %v", counts)
	}
	if counts[0] <= counts[1] {
		t.Fatalf("shares 30:10 but home counts %v", counts)
	}
}

func TestWriteExceptionCollapsesGroups(t *testing.T) {
	c, aff, _ := newTestController(t, 1, false)
	install(t, c, aff.SID, replicatedAlloc(4, 64))

	// Warm all four replicas of block 0.
	for u := 0; u < 4; u++ {
		lookup(c, u, aff.Base, false)
	}
	if !aff.ReadOnly {
		t.Fatal("stream should start read-only")
	}
	r := lookup(c, 0, aff.Base, true)
	if !r.WriteException {
		t.Fatal("first write did not raise an exception")
	}
	if aff.ReadOnly {
		t.Fatal("exception did not clear the read-only bit")
	}
	if r.ExceptionInvalidations < 3 {
		t.Fatalf("invalidated %d replicas, want >= 3", r.ExceptionInvalidations)
	}
	a, _ := c.Allocation(aff.SID)
	if len(a.GroupIDs()) != 1 {
		t.Fatalf("groups after exception: %v", a.GroupIDs())
	}
	// A second write must not raise another exception.
	if r2 := lookup(c, 1, aff.Base, true); r2.WriteException {
		t.Fatal("second write raised an exception")
	}
}

func TestApplyRejectsReplicatedWritableStream(t *testing.T) {
	c, aff, _ := newTestController(t, 1, false)
	aff.ReadOnly = false
	if _, err := c.Apply(map[stream.ID]Allocation{aff.SID: replicatedAlloc(4, 8)}); err == nil {
		t.Fatal("replicated allocation for a writable stream accepted")
	}
}

func TestApplyRejectsUnknownStream(t *testing.T) {
	c, _, _ := newTestController(t, 1, false)
	if _, err := c.Apply(map[stream.ID]Allocation{400: evenAlloc(4, 8)}); err == nil {
		t.Fatal("allocation for unknown stream accepted")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c, _, ind := newTestController(t, 1, false)
	ind.ReadOnly = false // pretend the exception already happened
	a := NewAllocation(4)
	a.Shares = []uint32{1, 0, 0, 0} // one row: tiny capacity forces evictions
	install(t, c, ind.SID, a)

	sawWriteback := false
	for e := uint64(0); e < 4096; e++ {
		r := lookup(c, 0, ind.Base+e*4, true)
		if r.WritebackBytes > 0 {
			sawWriteback = true
			break
		}
	}
	if !sawWriteback {
		t.Fatal("capacity pressure with dirty data produced no writebacks")
	}
}

func TestSLBMissOnFirstTouchThenHits(t *testing.T) {
	c, aff, _ := newTestController(t, 1, false)
	install(t, c, aff.SID, evenAlloc(4, 64))
	r := lookup(c, 0, aff.Base, false)
	if !r.SLBMissLocal {
		t.Fatal("first touch should miss the SLB")
	}
	r = lookup(c, 0, aff.Base, false)
	if r.SLBMissLocal {
		t.Fatal("second touch missed the SLB")
	}
}

func TestSLBCapacityEviction(t *testing.T) {
	tbl := stream.NewTable()
	p := DefaultParams()
	p.SLBEntries = 2
	var sids []stream.ID
	for i := 0; i < 3; i++ {
		s, err := stream.Configure(stream.ID(i+1), stream.Indirect, uint64(i+1)<<20, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Add(s); err != nil {
			t.Fatal(err)
		}
		sids = append(sids, s.SID)
	}
	c := NewController(p, 1, tbl, false)
	for _, sid := range sids {
		install(t, c, sid, evenAlloc(1, 4))
	}
	lookup(c, 0, 1<<20, false) // miss, fill
	lookup(c, 0, 2<<20, false) // miss, fill
	lookup(c, 0, 3<<20, false) // miss, evicts sid 1 (LRU)
	if r := lookup(c, 0, 1<<20, false); !r.SLBMissLocal {
		t.Fatal("evicted SLB entry still hit")
	}
}

func TestConsistentHashingKeepsDataOnGrow(t *testing.T) {
	c, _, ind := newTestController(t, 1, true)
	install(t, c, ind.SID, evenAlloc(4, 32))
	for e := uint64(0); e < 2048; e++ {
		lookup(c, 0, ind.Base+e*4, false)
	}
	grown := evenAlloc(4, 40) // +8 rows per unit
	rs, err := c.Apply(map[stream.ID]Allocation{ind.SID: grown})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ItemsKept == 0 {
		t.Fatal("consistent hashing kept nothing on a grow")
	}
	frac := float64(rs.ItemsKept) / float64(rs.ItemsExamined)
	if frac < 0.5 {
		t.Fatalf("kept only %.2f of items growing 32->40 rows; consistent hashing should keep most", frac)
	}
}

func TestBulkInvalidationDropsEverything(t *testing.T) {
	c, _, ind := newTestController(t, 1, false)
	install(t, c, ind.SID, evenAlloc(4, 32))
	for e := uint64(0); e < 2048; e++ {
		lookup(c, 0, ind.Base+e*4, false)
	}
	rs, err := c.Apply(map[stream.ID]Allocation{ind.SID: evenAlloc(4, 40)})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ItemsKept != 0 || rs.ItemsDropped == 0 {
		t.Fatalf("bulk invalidation stats: %+v", rs)
	}
	for u := 0; u < 4; u++ {
		if c.ResidentItems(u, ind.SID) != 0 {
			t.Fatalf("unit %d still has resident items after bulk invalidation", u)
		}
	}
}

func TestConsistentBeatsBulkOnInvalidations(t *testing.T) {
	// The §V-D claim, at model scale: consistent hashing drops fewer
	// items than bulk invalidation for the same reconfiguration.
	runOne := func(consistent bool) int {
		c, _, ind := newTestController(t, 1, consistent)
		install(t, c, ind.SID, evenAlloc(4, 32))
		for e := uint64(0); e < 2048; e++ {
			lookup(c, 0, ind.Base+e*4, false)
		}
		rs, err := c.Apply(map[stream.ID]Allocation{ind.SID: evenAlloc(4, 36)})
		if err != nil {
			t.Fatal(err)
		}
		return rs.ItemsDropped
	}
	if dc, db := runOne(true), runOne(false); dc >= db {
		t.Fatalf("consistent dropped %d >= bulk %d", dc, db)
	}
}

func TestApplyIdenticalAllocationIsNoOp(t *testing.T) {
	c, _, ind := newTestController(t, 1, false)
	a := evenAlloc(4, 32)
	install(t, c, ind.SID, a)
	for e := uint64(0); e < 512; e++ {
		lookup(c, 0, ind.Base+e*4, false)
	}
	rs, err := c.Apply(map[stream.ID]Allocation{ind.SID: a.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if rs.StreamsChanged != 0 || rs.ItemsDropped != 0 {
		t.Fatalf("identical reconfig disturbed the cache: %+v", rs)
	}
}

func TestHigherAssociativityNeverIncreasesConflicts(t *testing.T) {
	// Fig. 9(a): with the same capacity, higher associativity should not
	// produce more misses on a conflict-heavy pattern.
	missesAt := func(ways int) uint64 {
		c, _, ind := newTestController(t, ways, false)
		a := NewAllocation(4)
		a.Shares = []uint32{2, 0, 0, 0}
		install(t, c, ind.SID, a)
		// Two passes over a working set larger than capacity.
		for pass := 0; pass < 2; pass++ {
			for e := uint64(0); e < 1024; e += 2 {
				lookup(c, 0, ind.Base+e*4, false)
			}
		}
		return c.Stats().Misses
	}
	m1, m8 := missesAt(1), missesAt(8)
	if m8 > m1+m1/10 {
		t.Fatalf("8-way misses (%d) notably exceed direct-mapped (%d)", m8, m1)
	}
}

func TestAllocationValidate(t *testing.T) {
	a := NewAllocation(4)
	if err := a.Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(5); err == nil {
		t.Fatal("wrong unit count validated")
	}
	a.Groups[0] = 64
	if err := a.Validate(4); err == nil {
		t.Fatal("6-bit group overflow validated")
	}
}

func TestRingDistributionRoughlyProportional(t *testing.T) {
	a := NewAllocation(2)
	a.Shares = []uint32{300, 100}
	r := buildRing(7, a, 0)
	if r.size() != 400 {
		t.Fatalf("ring size = %d", r.size())
	}
	counts := [2]int{}
	for id := uint64(0); id < 20000; id++ {
		counts[r.locate(7, id).unit]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.2 || ratio > 4.2 {
		t.Fatalf("3:1 shares gave placement ratio %.2f (%v)", ratio, counts)
	}
}

func TestEpochAccessesResets(t *testing.T) {
	c, aff, _ := newTestController(t, 1, false)
	install(t, c, aff.SID, evenAlloc(4, 8))
	lookup(c, 2, aff.Base, false)
	lookup(c, 2, aff.Base, false)
	acc := c.EpochAccesses()
	if n := acc.Of(aff.SID)[2]; n != 2 {
		t.Fatalf("epoch access count = %d, want 2", n)
	}
	acc.Reset()
	for sid := stream.ID(0); sid < stream.MaxStreams; sid++ {
		for u, n := range c.EpochAccesses().Of(sid) {
			if n != 0 {
				t.Fatalf("EpochAccesses did not reset: stream %d unit %d counts %d", sid, u, n)
			}
		}
	}
	lookup(c, 1, aff.Base, false)
	if n := c.EpochAccesses().Of(aff.SID)[1]; n != 1 {
		t.Fatalf("count after reset = %d, want 1", n)
	}
}

func TestAffineAssociativityAbsorbsConflicts(t *testing.T) {
	// A strided sweep that direct-mapped blocks would thrash: with the
	// ATA's set-associative organization (AffineWays=8) the second pass
	// must mostly hit.
	missesWithWays := func(ways int) float64 {
		tbl := stream.NewTable()
		aff, err := stream.Configure(1, stream.Affine, 0x10000, 128<<10, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Add(aff); err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.AffineWays = ways
		c := NewController(p, 4, tbl, false)
		a := NewAllocation(4)
		for u := range a.Shares {
			a.Shares[u] = 32 // 128 rows total = 2x the 64-block footprint
		}
		if _, err := c.Apply(map[stream.ID]Allocation{1: a}); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 4; pass++ {
			for b := uint64(0); b < 128; b++ { // one access per block
				lookup(c, 0, aff.Base+b*1024, false)
			}
		}
		st := c.Stats()
		return float64(st.Misses) / float64(st.Misses+st.Hits)
	}
	direct := missesWithWays(1)
	assoc := missesWithWays(8)
	if assoc >= direct-0.05 {
		t.Fatalf("8-way ATA (miss %.3f) not clearly better than direct-mapped blocks (%.3f)", assoc, direct)
	}
	// 4 passes over 128 blocks: 25% cold misses are unavoidable; the
	// associativity must keep conflicts to a small residual (consistent
	// hashing's unit-load variance makes a few sets cyclically overloaded,
	// which no replacement policy fully absorbs).
	if assoc > 0.35 {
		t.Fatalf("8-way ATA miss rate %.3f; repeated sweep over fitting data should mostly hit", assoc)
	}
}

func TestWayPredictionMispredicts(t *testing.T) {
	tbl := stream.NewTable()
	ind, err := stream.Configure(1, stream.Indirect, 0x100000, 64<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(ind); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.IndirectWays = 4
	p.WayPredict = true
	c := NewController(p, 1, tbl, false)
	a := NewAllocation(1)
	a.Shares[0] = 128
	if _, err := c.Apply(map[stream.ID]Allocation{1: a}); err != nil {
		t.Fatal(err)
	}
	// Alternate between elements until two land in the same set; the MRU
	// predictor must then mispredict on ping-pong accesses.
	saw := false
	for e := uint64(0); e < 4096 && !saw; e++ {
		lookup(c, 0, ind.Base+e*4, false)
		r := lookup(c, 0, ind.Base+e*4, false)
		if !r.Hit {
			t.Fatal("repeat access missed")
		}
		// Ping-pong against a prior element.
		for f := uint64(0); f < e; f++ {
			lookup(c, 0, ind.Base+f*4, false)
			if r2 := lookup(c, 0, ind.Base+e*4, false); r2.Hit && r2.WayMispredict {
				saw = true
				break
			}
		}
	}
	if !saw {
		t.Fatal("way predictor never mispredicted under ping-pong accesses")
	}
}

// Property: under random allocations and accesses, Lookup never panics,
// served homes always hold shares for the requester's group, and hit
// accounting stays consistent.
func TestLookupInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		tbl := stream.NewTable()
		nStreams := 1 + rng.Intn(6)
		for i := 0; i < nStreams; i++ {
			typ := stream.Affine
			if rng.Intn(2) == 0 {
				typ = stream.Indirect
			}
			s, err := stream.Configure(stream.ID(i+1), typ,
				uint64(i+1)<<22, uint64(1+rng.Intn(32))*4096, 4)
			if err != nil {
				return false
			}
			if err := tbl.Add(s); err != nil {
				return false
			}
		}
		const units = 4
		allocs := map[stream.ID]Allocation{}
		for i := 0; i < nStreams; i++ {
			a := NewAllocation(units)
			groups := 1 + rng.Intn(2)
			for u := 0; u < units; u++ {
				a.Shares[u] = uint32(rng.Intn(20))
				a.Groups[u] = uint8(u * groups / units)
			}
			allocs[stream.ID(i+1)] = a
		}
		c := NewController(DefaultParams(), units, tbl, rng.Intn(2) == 0)
		if _, err := c.Apply(allocs); err != nil {
			return false
		}
		for k := 0; k < 500; k++ {
			si := 1 + rng.Intn(nStreams)
			s := tbl.Get(stream.ID(si))
			addr := s.Base + rng.Uint64n(s.Size)
			unit := rng.Intn(units)
			r := lookup(c, unit, addr, rng.Intn(8) == 0)
			if r.Bypass {
				return false // all addresses are inside streams
			}
			if !r.NoSpace {
				a := allocs[s.SID]
				if r.Home < 0 || r.Home >= units {
					return false
				}
				// The home must belong to the requester's group and
				// hold rows (modulo a write exception collapsing groups).
				cur, _ := c.Allocation(s.SID)
				if cur.Shares[r.Home] == 0 {
					return false
				}
				_ = a
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses+st.NoSpace+st.Bypasses == st.Lookups
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// lookup resolves one access and returns its result.
func lookup(c *Controller, unit int, addr uint64, write bool) Lookup {
	var r Lookup
	c.Lookup(unit, addr, write, &r)
	return r
}
