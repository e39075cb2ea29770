package nuca

import (
	"testing"

	"ndpext/internal/cache"
	"ndpext/internal/policy"
	"ndpext/internal/sim"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// refController is the map-based controller the line tables replaced:
// one map per unit from (sid, slot) to the resident line, and a
// placeLine that walks every unit on each access. It is kept as the
// reference the dense tables and the placement index must match.
type refController struct {
	kind     Kind
	params   Params
	unitRows uint32
	table    *stream.Table
	allocs   map[stream.ID]streamcache.Allocation
	meta     []*cache.Cache
	resident []map[refKey]refLine
	stats    Stats
	perSID   map[stream.ID]streamcache.StreamStats
}

type refKey struct {
	sid  stream.ID
	slot uint64
}

type refLine struct {
	line  uint64
	dirty bool
}

func newRefController(kind Kind, p Params, numUnits int, unitRows uint32, tbl *stream.Table) *refController {
	c := &refController{
		kind: kind, params: p, unitRows: unitRows, table: tbl,
		allocs: map[stream.ID]streamcache.Allocation{},
		perSID: map[stream.ID]streamcache.StreamStats{},
	}
	for i := 0; i < numUnits; i++ {
		c.meta = append(c.meta, cache.New(p.MetaEntries(), 1, p.MetaCacheAssoc))
		c.resident = append(c.resident, map[refKey]refLine{})
	}
	rows := unitRows
	if kind != StaticInterleave {
		rows = miscRows(unitRows)
	}
	c.allocs[miscSID] = interleavedAllocation(numUnits, rows)
	return c
}

func (c *refController) Lookup(unit int, addr uint64, write bool) Lookup {
	c.stats.Lookups++
	var r Lookup
	line := addr / uint64(c.params.LineBytes)
	sid := miscSID
	if s := c.table.FindByAddr(addr); s != nil && c.kind != StaticInterleave {
		sid = s.SID
	}
	r.SID = sid
	alloc, ok := c.allocs[sid]
	if !ok || alloc.TotalRows() == 0 {
		sid = miscSID
		alloc = c.allocs[miscSID]
		r.SID = sid
	}
	lpr := uint64(c.params.RowBytes / c.params.LineBytes)
	home, slot, ord := refPlaceLine(sid, alloc, alloc.Groups[unit], line, lpr)
	r.Home = home
	r.HomeRow = int64(alloc.RowBase[home]) + int64(ord)

	metaBlock := line / uint64(c.params.MetaBlockBytes/c.params.LineBytes)
	hit, _, _ := c.meta[unit].Access(metaBlock, false)
	r.MetaHit = hit
	if hit {
		c.stats.MetaHits++
	} else {
		c.stats.MetaMisses++
		r.MetaDRAMRow = int64(c.unitRows) + int64(metaBlock)%64
	}

	key := refKey{sid: sid, slot: slot}
	res := c.resident[r.Home]
	st := c.perSID[sid]
	defer func() { c.perSID[sid] = st }()
	if v, ok := res[key]; ok && v.line == line {
		r.Hit = true
		if write {
			v.dirty = true
			res[key] = v
		}
		c.stats.Hits++
		st.Hits++
		return r
	}
	c.stats.Misses++
	st.Misses++
	r.FetchBytes = c.params.LineBytes
	if v, ok := res[key]; ok && v.dirty {
		r.WritebackBytes = c.params.LineBytes
		c.stats.Writebacks++
	}
	res[key] = refLine{line: line, dirty: write}
	return r
}

// refPlaceLine is placeLine before the placement index: two walks over
// the units per access.
func refPlaceLine(sid stream.ID, a streamcache.Allocation, g uint8, line uint64, linesPerRow uint64) (home int, slot uint64, ord uint32) {
	total := a.GroupRows(g)
	if total == 0 {
		g = 0
		total = a.GroupRows(g)
		if total == 0 {
			return 0, line % linesPerRow, 0
		}
	}
	slot = lineHash(uint64(sid), line) % (total * linesPerRow)
	var acc uint64
	rowIdx := slot / linesPerRow
	for u, s := range a.Shares {
		if a.Groups[u] != g || s == 0 {
			continue
		}
		if rowIdx < acc+uint64(s) {
			return u, slot, uint32(rowIdx - acc)
		}
		acc += uint64(s)
	}
	return 0, slot, 0
}

func (c *refController) Apply(newAllocs map[stream.ID]streamcache.Allocation) (streamcache.ReconfigStats, error) {
	var rs streamcache.ReconfigStats
	for sid, a := range newAllocs {
		if err := a.Validate(len(c.meta)); err != nil {
			return rs, err
		}
		if old, ok := c.allocs[sid]; ok && old.Equal(a) {
			continue
		}
		rs.StreamsChanged++
		c.allocs[sid] = a.Clone()
		for _, res := range c.resident {
			for k, v := range res {
				if k.sid != sid {
					continue
				}
				rs.ItemsExamined++
				rs.ItemsDropped++
				if v.dirty {
					rs.Writebacks++
					c.stats.Writebacks++
				}
				delete(res, k)
			}
		}
	}
	return rs, nil
}

// refPair drives a Controller and its reference through the same calls
// and fails on the first difference.
type refPair struct {
	t    *testing.T
	got  *Controller
	want *refController
}

// newRefPair builds both controllers with a 1 kB metadata cache per
// unit, small enough to miss often and cheap to build per fuzz input.
func newRefPair(t *testing.T, kind Kind, numUnits int, unitRows uint32) *refPair {
	tbl := testTable(t)
	p := DefaultParams()
	p.MetaCacheBytes = 1 << 10
	return &refPair{t: t,
		got:  NewController(kind, p, numUnits, unitRows, tbl),
		want: newRefController(kind, p, numUnits, unitRows, tbl),
	}
}

func (p *refPair) lookup(step, unit int, addr uint64, write bool) {
	p.t.Helper()
	g, w := p.got.Lookup(unit, addr, write), p.want.Lookup(unit, addr, write)
	if g != w {
		p.t.Fatalf("step %d: Lookup(%d, %#x, %v) = %+v, want %+v", step, unit, addr, write, g, w)
	}
	if gs, ws := p.got.StreamStatsFor(g.SID), p.want.perSID[w.SID]; gs != ws {
		p.t.Fatalf("step %d: sid %d stats %+v, want %+v", step, g.SID, gs, ws)
	}
	p.stats(step)
}

func (p *refPair) apply(step int, allocs map[stream.ID]streamcache.Allocation) {
	p.t.Helper()
	grs, gerr := p.got.Apply(allocs)
	wrs, werr := p.want.Apply(allocs)
	if grs != wrs || (gerr == nil) != (werr == nil) {
		p.t.Fatalf("step %d: Apply = %+v, %v; want %+v, %v", step, grs, gerr, wrs, werr)
	}
	p.stats(step)
}

func (p *refPair) stats(step int) {
	p.t.Helper()
	if g, w := p.got.Stats(), p.want.stats; g != w {
		p.t.Fatalf("step %d: Stats = %+v, want %+v", step, g, w)
	}
}

// refAddrs are the address regions the fuzz target draws from: the two
// streams of testTable and non-stream space.
var refAddrs = [3]uint64{0x100000, 0x200000, 0x900000}

// FuzzLookupMatchesReference drives the controller and the map-based
// reference with random lookups, writes and reconfigurations, over
// allocations with several replication groups, zero-share units and an
// empty group 0, and requires identical results and counters.
func FuzzLookupMatchesReference(f *testing.F) {
	// An op is a lookup, 0 unit line where (where%3 picks the region of
	// refAddrs, where&4 writes), or an Apply, 6 then one control byte per
	// sid (see the Fuzz body) and fuzzAllocation's bytes.
	sweep := func(units int, wheres ...byte) []byte {
		var ops []byte
		for line := 0; line < 48; line++ {
			ops = append(ops, 0, byte(line%units), byte(line*5), wheres[line%len(wheres)])
		}
		return ops
	}
	// unit packs fuzzAllocation's per-unit byte.
	unit := func(share, group, rowBase byte) byte { return share | group<<2 | rowBase<<4 }
	const (
		omit, again = 0, 1
		fresh       = 2 // | mode<<2
	)
	var ops []byte
	ops = append(ops, 6, fresh|0<<2, // sid 1: random groups with zero-share units
		unit(2, 0, 1), unit(0, 1, 0), unit(3, 1, 2), unit(1, 2, 0), unit(0, 0, 0), unit(2, 3, 5),
		omit)
	ops = append(ops, sweep(6, 0, 6, 1, 2, 5)...)
	ops = append(ops, 6, again, fresh|2<<2, // sid 1 unchanged; sid 2 with an empty group 0
		unit(0, 0, 0), unit(2, 1, 0), unit(1, 2, 3), unit(0, 0, 0), unit(3, 3, 1), unit(1, 1, 4))
	ops = append(ops, sweep(6, 1, 4, 0, 6)...)
	ops = append(ops, 6, fresh|1<<2, 3, // sid 1 changed: three contiguous groups
		unit(1, 0, 0), unit(2, 0, 1), unit(0, 0, 0), unit(3, 0, 2), unit(1, 0, 0), unit(2, 0, 0),
		fresh|3<<2, // sid 2 changed: everything in group 1
		unit(1, 0, 0), unit(0, 0, 0), unit(2, 0, 1), unit(1, 0, 0), unit(0, 0, 0), unit(3, 0, 0))
	ops = append(ops, sweep(6, 6, 4, 2)...)
	ops = append(ops, 6, again, again)
	ops = append(ops, sweep(6, 0, 1)...)
	f.Add(uint8(Whirlpool), uint8(5), uint8(1), ops)
	f.Add(uint8(Nexus), uint8(5), uint8(0), ops)
	// sid 1 installed without rows falls back to the misc partition.
	f.Add(uint8(Jigsaw), uint8(3), uint8(2), append([]byte{6, fresh | 3<<2, 0, 0, 0, 0, omit}, sweep(4, 0, 6, 5)...))
	f.Add(uint8(StaticInterleave), uint8(2), uint8(0), sweep(3, 6, 1, 5))
	// Two units, sid 2 with an empty group 0: unit 0's lookups take the
	// degenerate branch to unit 0, which has no share; unit 1's go to
	// unit 1's own row. Both sets of lines must be dropped on Apply.
	ops = []byte{6, omit, fresh | 2<<2, unit(0, 0, 0), unit(1, 1, 0)}
	for line := byte(0); line < 64; line++ {
		ops = append(ops, 0, line/32, line, 1+3*(line&1))
	}
	f.Add(uint8(Whirlpool), uint8(1), uint8(0), append(ops, 6, omit, fresh|3<<2, unit(1, 0, 0), unit(1, 0, 0)))
	f.Fuzz(func(t *testing.T, kind, units, rows uint8, ops []byte) {
		numUnits := 1 + int(units)%12
		p := newRefPair(t, Kind(kind%4), numUnits, 1+uint32(rows)%8)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		prev := map[stream.ID]streamcache.Allocation{}
		for step := 0; len(ops) > 0; step++ {
			op := next()
			if op%8 < 6 {
				unit, lineIdx, where := int(next())%numUnits, uint64(next()), next()
				p.lookup(step, unit, refAddrs[where%3]+lineIdx*64, where&4 != 0)
				continue
			}
			allocs := map[stream.ID]streamcache.Allocation{}
			for sid := stream.ID(1); sid <= 2; sid++ {
				ctl := next()
				switch ctl % 4 {
				case 0: // leave sid out
				case 1: // install the previous allocation again
					if a, ok := prev[sid]; ok {
						allocs[sid] = a
					}
				default:
					a := fuzzAllocation(numUnits, ctl>>2, next)
					allocs[sid], prev[sid] = a, a
				}
			}
			p.apply(step, allocs)
		}
	})
}

// fuzzAllocation builds an allocation from fuzz bytes. mode%4 picks the
// group layout: 0 random groups, 1 contiguous clusters as Nexus builds
// them, 2 random groups with group 0 empty, 3 everything in group 1.
// Shares are 0 to 3 rows, so many units have none.
func fuzzAllocation(numUnits int, mode byte, next func() byte) streamcache.Allocation {
	a := streamcache.NewAllocation(numUnits)
	var clusters [][]int
	if mode%4 == 1 {
		clusters = clusterUnits(numUnits, 1+int(next())%4)
		for g, us := range clusters {
			for _, u := range us {
				a.Groups[u] = uint8(g)
			}
		}
	}
	for u := range a.Shares {
		b := next()
		a.Shares[u] = uint32(b % 4)
		a.RowBase[u] = uint32(b >> 4)
		switch mode % 4 {
		case 0:
			a.Groups[u] = (b >> 2) % 4
		case 2:
			a.Groups[u] = (b >> 2) % 4
			if a.Groups[u] == 0 {
				a.Shares[u] = 0
			}
		case 3:
			a.Groups[u] = 1
		}
	}
	return a
}

// TestLookupMatchesReference runs the configurators' own allocations
// through both controllers: every epoch reconfigures from the profile of
// the previous one, as the simulator does.
func TestLookupMatchesReference(t *testing.T) {
	const numUnits, unitRows = 16, 24
	for _, kind := range []Kind{StaticInterleave, Jigsaw, Whirlpool, Nexus} {
		p := newRefPair(t, kind, numUnits, unitRows)
		rng := sim.NewRNG(uint64(kind) + 1)
		step := 0
		for epoch := 0; epoch < 6; epoch++ {
			for i := 0; i < 3000; i++ {
				unit := rng.Intn(numUnits)
				var addr uint64
				switch r := rng.Intn(10); {
				case r < 6:
					addr = 0x100000 + uint64(rng.Intn(256<<10))
				case r < 9:
					addr = 0x200000 + uint64(rng.Intn(128<<10))
				default:
					addr = 0x900000 + uint64(rng.Intn(64<<10))
				}
				p.lookup(step, unit, addr, rng.Intn(4) == 0)
				step++
			}
			cfg := confIn(numUnits, unitRows)
			var ins []policy.StreamInput
			counts := p.got.EpochAccesses()
			for sid := stream.ID(1); sid <= 2; sid++ {
				in := policy.StreamInput{SID: sid, Acc: map[int]uint64{}, ReadOnly: sid == 2}
				var acc uint64
				for u := 0; u < numUnits; u += 1 + epoch%3 {
					in.Acc[u] = counts.Of(sid)[u]
					acc += counts.Of(sid)[u]
				}
				in.Curve = curveWS(int64(64<<10)*int64(sid), 0.1, acc)
				ins = append(ins, in)
			}
			counts.Reset()
			allocs, err := Configure(kind, cfg, ins)
			if err != nil {
				t.Fatal(err)
			}
			p.apply(step, allocs)
		}
	}
}
