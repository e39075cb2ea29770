package nuca

import (
	"testing"

	"ndpext/internal/policy"
	"ndpext/internal/sampler"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

func testTable(t *testing.T) *stream.Table {
	t.Helper()
	tbl := stream.NewTable()
	a, err := stream.Configure(1, stream.Affine, 0x100000, 256<<10, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stream.Configure(2, stream.Indirect, 0x200000, 128<<10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(b); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func prox(u, v int) float64 {
	d := u - v
	if d < 0 {
		d = -d
	}
	return 1.0 / (1.0 + float64(d))
}

// confIn prices a miss at 5 hits.
func confIn(units int, rows uint32) policy.Config {
	return policy.Config{
		NumUnits: units, UnitRows: rows, RowBytes: 2048, SegRows: 1, MaxGroups: 64,
		Attenuation: prox, MissLatNS: 5, HitLatNS: 1,
	}
}

func curveWS(wsBytes int64, floor float64, accesses uint64) sampler.Curve {
	return sampler.Curve{
		ItemBytes: 64,
		Accesses:  accesses,
		Points: []sampler.CurvePoint{
			{Bytes: wsBytes / 8, MissRate: 1, Sampled: 100},
			{Bytes: wsBytes, MissRate: floor, Sampled: 100},
			{Bytes: wsBytes * 8, MissRate: floor, Sampled: 100},
		},
	}
}

func TestStaticInterleaveSpreadsLines(t *testing.T) {
	c := NewController(StaticInterleave, DefaultParams(), 8, 128, testTable(t))
	homes := map[int]int{}
	for i := uint64(0); i < 4096; i++ {
		r := c.Lookup(0, 0x100000+i*64, false)
		homes[r.Home]++
	}
	if len(homes) != 8 {
		t.Fatalf("lines landed on %d/8 units", len(homes))
	}
	for u, n := range homes {
		if n < 4096/8/2 || n > 4096/8*2 {
			t.Fatalf("unit %d got %d lines; interleaving badly skewed", u, n)
		}
	}
}

func TestLineHitAfterFill(t *testing.T) {
	c := NewController(StaticInterleave, DefaultParams(), 4, 1024, testTable(t))
	if r := c.Lookup(0, 0x100000, false); r.Hit {
		t.Fatal("cold lookup hit")
	}
	if r := c.Lookup(0, 0x100000, false); !r.Hit {
		t.Fatal("warm lookup missed")
	}
	// Same 64 B line, different byte.
	if r := c.Lookup(0, 0x100020, false); !r.Hit {
		t.Fatal("same-line lookup missed")
	}
	// Next line: no prefetching at line granularity (the NDPExt
	// advantage for affine streams).
	if r := c.Lookup(0, 0x100040, false); r.Hit {
		t.Fatal("adjacent line hit without being fetched")
	}
}

func TestMetadataCacheBehaviour(t *testing.T) {
	c := NewController(StaticInterleave, DefaultParams(), 4, 1024, testTable(t))
	r := c.Lookup(0, 0x100000, false)
	if r.MetaHit {
		t.Fatal("cold metadata lookup hit")
	}
	if r.MetaDRAMRow < int64(1024) {
		t.Fatalf("metadata row %d not above the data rows", r.MetaDRAMRow)
	}
	r = c.Lookup(0, 0x100000, false)
	if !r.MetaHit {
		t.Fatal("warm metadata lookup missed")
	}
	// 512 B metadata block covers 8 lines: neighbours hit the metadata
	// cache even though their data misses.
	r = c.Lookup(0, 0x100040, false)
	if !r.MetaHit {
		t.Fatal("dual-granularity metadata should cover the 512 B block")
	}
	if st := c.Stats(); st.MetaHits <= st.MetaMisses {
		t.Fatalf("meta hits %d, misses %d", st.MetaHits, st.MetaMisses)
	}
}

func TestDirtyWriteback(t *testing.T) {
	// 1 unit, tiny capacity: force slot conflicts with dirty lines.
	c := NewController(StaticInterleave, DefaultParams(), 1, 2, testTable(t))
	saw := false
	for i := uint64(0); i < 4096 && !saw; i++ {
		r := c.Lookup(0, 0x100000+i*64, true)
		saw = r.WritebackBytes > 0
	}
	if !saw {
		t.Fatal("no writebacks under capacity pressure with writes")
	}
}

func TestApplyBulkInvalidates(t *testing.T) {
	c := NewController(Whirlpool, DefaultParams(), 4, 256, testTable(t))
	alloc := interleavedAllocation(4, 32)
	if _, err := c.Apply(map[stream.ID]streamcache.Allocation{1: alloc}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 512; i++ {
		c.Lookup(0, 0x100000+i*64, false)
	}
	bigger := interleavedAllocation(4, 64)
	rs, err := c.Apply(map[stream.ID]streamcache.Allocation{1: bigger})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ItemsDropped == 0 || rs.ItemsKept != 0 {
		t.Fatal("reconfiguration invalidated nothing")
	}
}

func TestConfigureJigsawSpreadsSharedData(t *testing.T) {
	in := confIn(8, 256)
	streams := []policy.StreamInput{
		{SID: 1, ReadOnly: true, Curve: curveWS(64*2048, 0, 1_000_000),
			Acc: map[int]uint64{0: 500_000, 7: 500_000}}, // shared: spread
		{SID: 2, ReadOnly: true, Curve: curveWS(64*2048, 0, 800_000),
			Acc: map[int]uint64{3: 800_000}}, // private: at unit 3
	}
	allocs, err := Configure(Jigsaw, in, streams)
	if err != nil {
		t.Fatal(err)
	}
	s1 := allocs[1]
	nonzero := 0
	for _, s := range s1.Shares {
		if s > 0 {
			nonzero++
		}
	}
	if nonzero < 6 {
		t.Fatalf("shared stream only placed on %d units; Jigsaw spreads shared data", nonzero)
	}
	s2 := allocs[2]
	if s2.Shares[3] == 0 {
		t.Fatal("private stream not placed at its accessor")
	}
	best := 0
	for u, s := range s2.Shares {
		if s > s2.Shares[best] {
			best = u
		}
		_ = u
	}
	if best != 3 {
		t.Fatalf("private stream centered at unit %d, want 3", best)
	}
}

func TestConfigureWhirlpoolCenterOfMass(t *testing.T) {
	in := confIn(8, 256)
	streams := []policy.StreamInput{
		{SID: 1, ReadOnly: true, Curve: curveWS(64*2048, 0, 1_000_000),
			Acc: map[int]uint64{2: 500_000, 4: 500_000}},
	}
	allocs, err := Configure(Whirlpool, in, streams)
	if err != nil {
		t.Fatal(err)
	}
	a := allocs[1]
	if len(a.GroupIDs()) != 1 {
		t.Fatal("Whirlpool must not replicate")
	}
	// Placement should favour units 2..4 over the edges.
	edge := uint64(a.Shares[0]) + uint64(a.Shares[7])
	center := uint64(a.Shares[2]) + uint64(a.Shares[3]) + uint64(a.Shares[4])
	if center <= edge {
		t.Fatalf("center-of-mass placement failed: center %d, edge %d (%v)", center, edge, a.Shares)
	}
}

func TestConfigureNexusReplicatesReadOnly(t *testing.T) {
	in := confIn(8, 1024) // plenty of space: replication should win
	streams := []policy.StreamInput{
		{SID: 1, ReadOnly: true, Curve: curveWS(16*2048, 0, 1_000_000),
			Acc: map[int]uint64{0: 250_000, 2: 250_000, 5: 250_000, 7: 250_000}},
	}
	allocs, err := Configure(Nexus, in, streams)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(allocs[1].GroupIDs()); got < 2 {
		t.Fatalf("Nexus chose %d groups; with abundant space it should replicate", got)
	}
}

func TestConfigureNexusWritableNeverReplicated(t *testing.T) {
	in := confIn(8, 1024)
	streams := []policy.StreamInput{
		{SID: 1, ReadOnly: false, Curve: curveWS(16*2048, 0, 1_000_000),
			Acc: map[int]uint64{0: 500_000, 7: 500_000}},
	}
	allocs, err := Configure(Nexus, in, streams)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(allocs[1].GroupIDs()); got != 1 {
		t.Fatalf("writable stream replicated %d ways under Nexus", got)
	}
}

func TestCapacityRespectedAcrossStreams(t *testing.T) {
	in := confIn(4, 64)
	var streams []policy.StreamInput
	for i := 0; i < 6; i++ {
		streams = append(streams, policy.StreamInput{
			SID: stream.ID(i + 1), ReadOnly: true,
			Curve: curveWS(1<<20, 0, 100_000),
			Acc:   map[int]uint64{i % 4: 100_000},
		})
	}
	allocs, err := Configure(Whirlpool, in, streams)
	if err != nil {
		t.Fatal(err)
	}
	per := make([]uint64, 4)
	for _, a := range allocs {
		for u, s := range a.Shares {
			per[u] += uint64(s)
		}
	}
	for u, rows := range per {
		if rows > 64 {
			t.Fatalf("unit %d overcommitted: %d rows", u, rows)
		}
	}
}

func TestLookupRoutesToAllocatedPartition(t *testing.T) {
	tbl := testTable(t)
	c := NewController(Whirlpool, DefaultParams(), 4, 256, tbl)
	a := streamcache.NewAllocation(4)
	a.Shares[2] = 64 // stream 1 lives entirely on unit 2
	if _, err := c.Apply(map[stream.ID]streamcache.Allocation{1: a}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 256; i++ {
		r := c.Lookup(0, 0x100000+i*64, false)
		if r.Home != 2 {
			t.Fatalf("line served by unit %d, want 2", r.Home)
		}
	}
}

func TestNonStreamUsesMiscPartition(t *testing.T) {
	c := NewController(Whirlpool, DefaultParams(), 4, 256, testTable(t))
	r := c.Lookup(1, 0xDEADBEEF00, false)
	if r.SID != miscSID {
		t.Fatalf("non-stream address classified as stream %d", r.SID)
	}
	if r2 := c.Lookup(1, 0xDEADBEEF00, false); !r2.Hit {
		t.Fatal("misc partition did not cache the line")
	}
}

func TestEpochAccessesTracking(t *testing.T) {
	c := NewController(Whirlpool, DefaultParams(), 4, 256, testTable(t))
	c.Lookup(3, 0x100000, false)
	c.Lookup(3, 0x200000, false)
	acc := c.EpochAccesses()
	if acc.Of(1)[3] != 1 || acc.Of(2)[3] != 1 {
		t.Fatalf("epoch accesses = %v, %v", acc.Of(1), acc.Of(2))
	}
	acc.Reset()
	for sid := stream.ID(0); sid < stream.MaxStreams; sid++ {
		if n := c.EpochAccesses().Of(sid)[3]; n != 0 {
			t.Fatalf("epoch accesses not reset: stream %d counts %d", sid, n)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		StaticInterleave: "static-interleave",
		Jigsaw:           "jigsaw",
		Whirlpool:        "whirlpool",
		Nexus:            "nexus",
	} {
		if k.String() != want {
			t.Fatalf("String(%d) = %q", int(k), k.String())
		}
	}
}

func TestSizeByLookaheadPrefersHotSteepStreams(t *testing.T) {
	// Capacity fits only one full working set: the hot stream must win it.
	in := confIn(4, 40)
	streams := []policy.StreamInput{
		{SID: 1, ReadOnly: true, Curve: curveWS(128*2048, 0, 1_000_000),
			Acc: map[int]uint64{0: 1_000_000}},
		{SID: 2, ReadOnly: true, Curve: curveWS(128*2048, 0, 1_000),
			Acc: map[int]uint64{1: 1_000}},
	}
	rows := sizeByLookahead(in, streams, nil)
	if rows[1] <= rows[2] {
		t.Fatalf("hot stream got %d rows, cold got %d", rows[1], rows[2])
	}
}

func TestNexusDegreeRespondsToCapacity(t *testing.T) {
	// With tiny capacity, replication shrinks copies too much and degree
	// 1 must win; with huge capacity higher degrees should be chosen.
	streams := []policy.StreamInput{
		{SID: 1, ReadOnly: true, Curve: curveWS(64*2048, 0, 1_000_000),
			Acc: map[int]uint64{0: 250_000, 3: 250_000, 5: 250_000, 7: 250_000}},
	}
	tiny := confIn(8, 16)
	tinyAllocs, err := Configure(Nexus, tiny, streams)
	if err != nil {
		t.Fatal(err)
	}
	big := confIn(8, 4096)
	bigAllocs, err := Configure(Nexus, big, streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(tinyAllocs[1].GroupIDs()) > len(bigAllocs[1].GroupIDs()) {
		t.Fatalf("tiny capacity chose more replication (%d) than big capacity (%d)",
			len(tinyAllocs[1].GroupIDs()), len(bigAllocs[1].GroupIDs()))
	}
}

func TestClusterUnitsPartition(t *testing.T) {
	cl := clusterUnits(10, 3)
	if len(cl) != 3 {
		t.Fatalf("clusters = %d", len(cl))
	}
	seen := map[int]bool{}
	for _, c := range cl {
		for _, u := range c {
			if seen[u] {
				t.Fatalf("unit %d in two clusters", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("clusters cover %d units, want 10", len(seen))
	}
	// More clusters than units degrades gracefully.
	if got := clusterUnits(2, 5); len(got) != 2 {
		t.Fatalf("overclustered: %d", len(got))
	}
}

func TestConfigureUnknownKind(t *testing.T) {
	if _, err := Configure(Kind(99), confIn(2, 8), nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestConfigureValidatesInput(t *testing.T) {
	bad := confIn(0, 8)
	if _, err := Configure(Whirlpool, bad, nil); err == nil {
		t.Fatal("invalid input accepted")
	}
	bad = confIn(2, 8)
	bad.Attenuation = nil
	if _, err := Configure(Whirlpool, bad, nil); err == nil {
		t.Fatal("nil attenuation accepted")
	}
}

// The baselines have no dead-unit notion of their own: Configure drops
// whatever they place on a failed vault, for every partitioned kind.
func TestConfigureDropsDeadUnits(t *testing.T) {
	streams := []policy.StreamInput{
		{SID: 1, ReadOnly: true, Curve: curveWS(64*2048, 0, 1_000_000),
			Acc: map[int]uint64{0: 250_000, 2: 250_000, 5: 250_000, 7: 250_000}},
		{SID: 2, Curve: curveWS(64*2048, 0, 800_000), Acc: map[int]uint64{5: 800_000}},
	}
	for _, kind := range []Kind{Jigsaw, Whirlpool, Nexus} {
		in := confIn(8, 1024)
		live, err := Configure(kind, in, streams)
		if err != nil {
			t.Fatal(err)
		}
		if live[1].Shares[5]+live[2].Shares[5] == 0 {
			t.Fatalf("%v: nothing placed on unit 5 with every vault alive; the check is vacuous", kind)
		}
		in.DeadUnits = []int{5}
		allocs, err := Configure(kind, in, streams)
		if err != nil {
			t.Fatal(err)
		}
		for sid, a := range allocs {
			if a.Shares[5] != 0 {
				t.Fatalf("%v: stream %d keeps %d rows on dead unit 5", kind, sid, a.Shares[5])
			}
		}
	}
}
