package streamcache

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"ndpext/internal/sim"
	"ndpext/internal/stream"
)

// refController is the controller with the map-based residency that the
// dense per-(unit, stream) tables replaced: each unit keeps one
// map[refKey]*refSet over all streams, and Apply walks every unit's whole
// map for each changed stream. It is kept as the reference the tables
// must match.
type refController struct {
	params     Params
	numUnits   int
	table      *stream.Table
	consistent bool
	allocs     []Allocation
	hasAlloc   []bool
	rings      [][]*ring
	units      []*refUnit
	stats      Stats
	perSID     []StreamStats
}

// refKey addresses one associativity set of the DRAM cache space of a
// stream on one unit: the row ordinal (consistent-hash spot) plus the set
// index within the row.
type refKey struct {
	sid stream.ID
	ord uint32
	set uint32
}

type refWay struct {
	id    uint64
	use   uint64
	valid bool
	dirty bool
}

type refSet struct {
	ways []refWay
	rr   uint8
	mru  uint8
}

type refUnit struct {
	slb      *slbState
	tick     uint64
	resident map[refKey]*refSet
}

func newRefController(p Params, numUnits int, tbl *stream.Table, consistent bool) *refController {
	c := &refController{
		params: p, numUnits: numUnits, table: tbl, consistent: consistent,
		allocs:   make([]Allocation, stream.MaxStreams),
		hasAlloc: make([]bool, stream.MaxStreams),
		rings:    make([][]*ring, stream.MaxStreams),
		perSID:   make([]StreamStats, stream.MaxStreams),
	}
	for i := 0; i < numUnits; i++ {
		c.units = append(c.units, &refUnit{slb: newSLB(p.SLBEntries), resident: map[refKey]*refSet{}})
	}
	return c
}

func (u *refUnit) lookup(key refKey, id uint64, write bool, ways int, lru bool) (hit bool, victim refWay, mispredict bool) {
	u.tick++
	set := u.resident[key]
	if set != nil {
		for i := range set.ways {
			w := &set.ways[i]
			if w.valid && w.id == id {
				if write {
					w.dirty = true
				}
				w.use = u.tick
				mispredict = len(set.ways) > 1 && int(set.mru) != i
				set.mru = uint8(i)
				return true, refWay{}, mispredict
			}
		}
	}
	if set == nil {
		set = &refSet{ways: make([]refWay, ways)}
		u.resident[key] = set
	}
	vi := -1
	for i := range set.ways {
		if !set.ways[i].valid {
			vi = i
			break
		}
	}
	if vi < 0 {
		if lru {
			vi = 0
			for i := 1; i < len(set.ways); i++ {
				if set.ways[i].use < set.ways[vi].use {
					vi = i
				}
			}
		} else {
			vi = int(set.rr) % len(set.ways)
			set.rr++
		}
		victim = set.ways[vi]
	}
	set.ways[vi] = refWay{id: id, use: u.tick, valid: true, dirty: write}
	set.mru = uint8(vi)
	return false, victim, false
}

func (u *refUnit) dropStream(sid stream.ID) (items, dirty int) {
	for k, set := range u.resident {
		if k.sid != sid {
			continue
		}
		for _, w := range set.ways {
			if w.valid {
				items++
				if w.dirty {
					dirty++
				}
			}
		}
		delete(u.resident, k)
	}
	return items, dirty
}

// refLocate is ring.locate through sort.Search.
func refLocate(r *ring, sid stream.ID, id uint64) spot {
	h := hash64(id, uint64(sid)*0x6c62272e07bb0142+1)
	i := sort.Search(len(r.spots), func(i int) bool { return r.spots[i].hash >= h })
	if i == len(r.spots) {
		i = 0
	}
	return r.spots[i]
}

func (c *refController) ringOf(sid stream.ID, g uint8) *ring {
	rs := c.rings[sid]
	if int(g) >= len(rs) {
		return nil
	}
	return rs[g]
}

func (c *refController) Lookup(unit int, addr uint64, write bool) Lookup {
	var r Lookup
	c.stats.Lookups++
	s := c.table.FindByAddr(addr)
	if s == nil {
		r.Bypass = true
		r.SID = stream.NoStream
		c.stats.Bypasses++
		return r
	}
	r.SID = s.SID
	r.Affine = s.Type == stream.Affine
	us := c.units[unit]
	if !us.slb.access(s.SID) {
		r.SLBMissLocal = true
		c.stats.SLBMisses++
	} else {
		c.stats.SLBHits++
	}
	if write && s.ReadOnly {
		r.WriteException = true
		c.stats.WriteExceptions++
		r.ExceptionInvalidations = c.handleWriteException(s)
	}
	elem, _ := s.ElemID(addr)
	r.ItemID = elem
	itemBytes := int(s.ElemSize)
	if r.Affine {
		r.ItemID = elem * uint64(s.ElemSize) / uint64(c.params.BlockBytes)
		itemBytes = c.params.BlockBytes
	}
	r.ItemBytes = itemBytes
	alloc := c.allocs[s.SID]
	var rg *ring
	if c.hasAlloc[s.SID] {
		rg = c.ringOf(s.SID, alloc.Groups[unit])
	}
	if rg == nil {
		r.NoSpace = true
		r.Home = unit
		r.FetchBytes = itemBytes
		c.stats.NoSpace++
		c.perSID[s.SID].Misses++
		return r
	}
	sp := refLocate(rg, s.SID, r.ItemID)
	r.Home = int(sp.unit)
	r.HomeRow = int64(alloc.RowBase[sp.unit]) + int64(sp.ord)
	if r.Home != unit {
		if !c.units[r.Home].slb.access(s.SID) {
			r.SLBMissHome = true
			c.stats.SLBMisses++
		} else {
			c.stats.SLBHits++
		}
	}
	key, ways := c.residencyKey(s, alloc, sp, r.ItemID)
	hit, victim, mispredict := c.units[r.Home].lookup(key, r.ItemID, write, ways, r.Affine)
	r.Hit = hit
	if c.params.WayPredict && !r.Affine {
		r.WayMispredict = mispredict
	}
	ss := &c.perSID[s.SID]
	if hit {
		c.stats.Hits++
		ss.Hits++
	} else {
		c.stats.Misses++
		ss.Misses++
		r.FetchBytes = itemBytes
		if victim.valid && victim.dirty {
			r.WritebackBytes = itemBytes
			c.stats.Writebacks++
		}
	}
	return r
}

func (c *refController) residencyKey(s *stream.Stream, alloc Allocation, sp spot, item uint64) (refKey, int) {
	if s.Type == stream.Affine {
		itemsPerRow := c.params.RowBytes / c.params.BlockBytes
		if itemsPerRow < 1 {
			itemsPerRow = 1
		}
		rowsPerSet := c.params.AffineWays / itemsPerRow
		if rowsPerSet < 1 {
			rowsPerSet = 1
		}
		numSets := int(alloc.Shares[sp.unit]) / rowsPerSet
		if numSets < 1 {
			numSets = 1
		}
		set := uint32(hash64(item, uint64(s.SID)+0x5e7) % uint64(numSets))
		return refKey{sid: s.SID, ord: ^uint32(0), set: set}, rowsPerSet * itemsPerRow
	}
	itemsPerRow := c.params.RowBytes / (int(s.ElemSize) + c.params.TagBytes)
	if itemsPerRow < 1 {
		itemsPerRow = 1
	}
	numSets := itemsPerRow / c.params.IndirectWays
	if numSets < 1 {
		numSets = 1
	}
	set := uint32(hash64(item, uint64(s.SID)+0xabcd) % uint64(numSets))
	return refKey{sid: s.SID, ord: sp.ord, set: set}, c.params.IndirectWays
}

func (c *refController) handleWriteException(s *stream.Stream) int {
	s.ReadOnly = false
	if !c.hasAlloc[s.SID] {
		return 0
	}
	alloc := c.allocs[s.SID]
	groups := alloc.GroupIDs()
	if len(groups) <= 1 {
		return 0
	}
	keep := groups[0]
	for _, g := range groups[1:] {
		if alloc.GroupRows(g) > alloc.GroupRows(keep) {
			keep = g
		}
	}
	invalidated := 0
	for u := range alloc.Groups {
		if alloc.Groups[u] != keep && alloc.Shares[u] > 0 {
			n, _ := c.units[u].dropStream(s.SID)
			invalidated += n
		}
		alloc.Groups[u] = keep
	}
	c.allocs[s.SID] = alloc
	c.rebuildRings(s.SID, alloc)
	c.invalidateSLBs(s.SID)
	return invalidated
}

func (c *refController) rebuildRings(sid stream.ID, alloc Allocation) {
	c.rings[sid] = nil
	for _, g := range alloc.GroupIDs() {
		if rg := buildRing(sid, alloc, g); rg != nil {
			for int(g) >= len(c.rings[sid]) {
				c.rings[sid] = append(c.rings[sid], nil)
			}
			c.rings[sid][g] = rg
		}
	}
}

func (c *refController) invalidateSLBs(sid stream.ID) {
	for _, u := range c.units {
		u.slb.invalidate(sid)
	}
}

func (c *refController) Apply(newAllocs map[stream.ID]Allocation) (ReconfigStats, error) {
	var rs ReconfigStats
	for sid, a := range newAllocs {
		if err := a.Validate(c.numUnits); err != nil {
			return rs, err
		}
		if s := c.table.Get(sid); s == nil {
			return rs, fmt.Errorf("unknown stream %d", sid)
		} else if !s.ReadOnly && len(a.GroupIDs()) > 1 {
			return rs, fmt.Errorf("stream %d is writable but replicated", sid)
		}
	}
	for sid, a := range newAllocs {
		if c.hasAlloc[sid] && c.allocs[sid].Equal(a) {
			continue
		}
		rs.StreamsChanged++
		c.allocs[sid] = a.Clone()
		c.hasAlloc[sid] = true
		c.rebuildRings(sid, a)
		c.invalidateSLBs(sid)
		s := c.table.Get(sid)
		if !c.consistent {
			for _, u := range c.units {
				n, d := u.dropStream(sid)
				rs.ItemsExamined += n
				rs.ItemsDropped += n
				rs.Writebacks += d
			}
			continue
		}
		for uid, u := range c.units {
			for k, set := range u.resident {
				if k.sid != sid {
					continue
				}
				keepAny := false
				for i := range set.ways {
					w := &set.ways[i]
					if !w.valid {
						continue
					}
					rs.ItemsExamined++
					rg := c.ringOf(sid, c.allocs[sid].Groups[uid])
					survives := false
					if rg != nil {
						sp := refLocate(rg, sid, w.id)
						if int(sp.unit) == uid {
							k2, _ := c.residencyKey(s, c.allocs[sid], sp, w.id)
							survives = k2 == k
						}
					}
					if survives {
						rs.ItemsKept++
						keepAny = true
					} else {
						rs.ItemsDropped++
						if w.dirty {
							rs.Writebacks++
						}
						*w = refWay{}
					}
				}
				if !keepAny {
					delete(u.resident, k)
				}
			}
		}
	}
	c.stats.Writebacks += uint64(rs.Writebacks)
	return rs, nil
}

func (c *refController) ResidentItems(u int, sid stream.ID) int {
	n := 0
	for k, set := range c.units[u].resident {
		if k.sid != sid {
			continue
		}
		for _, w := range set.ways {
			if w.valid {
				n++
			}
		}
	}
	return n
}

// refStreams are the reference suite's streams: sid 1 affine and sid 2
// indirect, both read-only until their first write; sid 3 indirect and
// sid 4 affine, both writable.
var refStreams = []struct {
	sid      stream.ID
	typ      stream.Type
	base     uint64
	size     uint64
	elem     uint32
	readOnly bool
}{
	{1, stream.Affine, 0x100000, 24 << 10, 8, true},
	{2, stream.Indirect, 0x200000, 4 << 10, 4, true},
	{3, stream.Indirect, 0x300000, 6 << 10, 8, false},
	{4, stream.Affine, 0x400000, 12 << 10, 4, false},
}

// refTable builds a fresh table of refStreams: each controller needs its
// own, since a write exception clears the stream's read-only bit.
func refTable(t testing.TB) *stream.Table {
	t.Helper()
	tbl := stream.NewTable()
	for _, rs := range refStreams {
		s, err := stream.Configure(rs.sid, rs.typ, rs.base, rs.size, rs.elem)
		if err != nil {
			t.Fatal(err)
		}
		s.ReadOnly = rs.readOnly
		if err := tbl.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// refPair drives the controller and the reference in lockstep.
type refPair struct {
	t        testing.TB
	numUnits int
	got      *Controller
	want     *refController
	seen     refSeen
}

// refSeen counts the events a reference run went through, so that a
// test can require that it reached each path.
type refSeen struct {
	hits, mispredicts, writebacks, invalidations, kept, dropped int
}

// refParams returns the parameters selected by mode: the default design
// point, 4-way indirect sets with the way predictor, 512 B affine blocks
// with 4-way ATA sets, or 2-way indirect sets with 4 kB rows.
func refParams(mode byte) Params {
	p := DefaultParams()
	switch mode % 4 {
	case 1:
		p.IndirectWays, p.WayPredict = 4, true
	case 2:
		p.BlockBytes, p.AffineWays = 512, 4
	case 3:
		p.IndirectWays, p.RowBytes = 2, 4096
	}
	p.SLBEntries = 3
	return p
}

func newRefPair(t testing.TB, p Params, numUnits int, consistent bool) *refPair {
	return &refPair{t: t, numUnits: numUnits,
		got:  NewController(p, numUnits, refTable(t), consistent),
		want: newRefController(p, numUnits, refTable(t), consistent),
	}
}

func (p *refPair) lookup(step, unit int, addr uint64, write bool) {
	p.t.Helper()
	var g Lookup
	p.got.Lookup(unit, addr, write, &g)
	if w := p.want.Lookup(unit, addr, write); g != w {
		p.t.Fatalf("step %d: Lookup(%d, %#x, %v) = %+v, want %+v", step, unit, addr, write, g, w)
	}
	p.seen.hits += b2i(g.Hit)
	p.seen.mispredicts += b2i(g.WayMispredict)
	p.seen.writebacks += b2i(g.WritebackBytes > 0)
	p.seen.invalidations += g.ExceptionInvalidations
	if gs, ws := p.got.StreamStatsFor(g.SID), p.want.perSID[g.SID%stream.MaxStreams]; g.SID != stream.NoStream && gs != ws {
		p.t.Fatalf("step %d: sid %d stats %+v, want %+v", step, g.SID, gs, ws)
	}
	if g, w := p.got.Stats(), p.want.stats; g != w {
		p.t.Fatalf("step %d: Stats = %+v, want %+v", step, g, w)
	}
}

func (p *refPair) apply(step int, allocs map[stream.ID]Allocation) {
	p.t.Helper()
	grs, gerr := p.got.Apply(allocs)
	wrs, werr := p.want.Apply(allocs)
	if grs != wrs || (gerr == nil) != (werr == nil) {
		p.t.Fatalf("step %d: Apply = %+v, %v; want %+v, %v", step, grs, gerr, wrs, werr)
	}
	p.seen.kept += grs.ItemsKept
	p.seen.dropped += grs.ItemsDropped
	if g, w := p.got.Stats(), p.want.stats; g != w {
		p.t.Fatalf("step %d: Stats = %+v, want %+v", step, g, w)
	}
	for u := 0; u < p.numUnits; u++ {
		for _, rs := range refStreams {
			if g, w := p.got.ResidentItems(u, rs.sid), p.want.ResidentItems(u, rs.sid); g != w {
				p.t.Fatalf("step %d: ResidentItems(%d, %d) = %d, want %d", step, u, rs.sid, g, w)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writable reports whether sid takes writes without an exception now,
// which forbids replication groups in its allocations.
func (p *refPair) writable(sid stream.ID) bool { return !p.want.table.Get(sid).ReadOnly }

// refAllocation builds an allocation of sid from the byte source next:
// shares of 0 to 7 rows per unit, and for a read-only stream up to four
// replication groups. mode%4 picks the layout: 0 random groups, 1 half
// the units, 2 every unit in one group, 3 no rows at all (the stream is
// dropped).
func (p *refPair) refAllocation(sid stream.ID, mode byte, next func() byte) Allocation {
	a := NewAllocation(p.numUnits)
	if mode%4 == 3 {
		return a
	}
	for u := range a.Shares {
		b := next()
		a.Shares[u] = uint32(b % 8)
		a.RowBase[u] = uint32(b >> 3)
		if mode%4 == 0 && !p.writable(sid) {
			a.Groups[u] = (b >> 5) % 4
		}
		if mode%4 == 1 && u%2 == 1 {
			a.Shares[u] = 0
		}
	}
	return a
}

// refAddr picks an address from byte source values: one of refStreams
// (where%5 < 4) or non-stream space.
func refAddr(where, idx byte, hi byte) uint64 {
	if where%5 == 4 {
		return 0x900000 + uint64(idx)*64
	}
	rs := refStreams[where%5]
	off := (uint64(hi)<<8 | uint64(idx)) * uint64(rs.elem) % rs.size
	return rs.base + off
}

// TestResidencyMatchesReference drives both controllers through epochs of
// lookups, with and without consistent hashing and over every refParams
// mode. Each epoch ends in a reconfiguration that grows, shrinks,
// regroups, keeps or drops each stream; writes to the read-only streams
// raise write exceptions along the way.
func TestResidencyMatchesReference(t *testing.T) {
	var seen refSeen
	for mode := byte(0); mode < 4; mode++ {
		for _, consistent := range []bool{true, false} {
			const numUnits = 6
			p := newRefPair(t, refParams(mode), numUnits, consistent)
			rng := sim.NewRNG(uint64(mode)*2 + 1)
			next := func() byte { return byte(rng.Uint64()) }
			step := 0
			for epoch := 0; epoch < 12; epoch++ {
				allocs := map[stream.ID]Allocation{}
				for _, rs := range refStreams {
					switch ctl := next(); {
					case epoch == 0 || ctl%4 != 0:
						allocs[rs.sid] = p.refAllocation(rs.sid, ctl>>2, next)
					case epoch > 4 && ctl%8 == 4:
						allocs[rs.sid] = p.refAllocation(rs.sid, 3, next)
					}
				}
				p.apply(step, allocs)
				for i := 0; i < 2500; i++ {
					// Writes are rare in the first epochs, so write
					// exceptions hit read-only streams with installed
					// replicas.
					write := rng.Intn(40) < 1+epoch
					p.lookup(step, rng.Intn(numUnits), refAddr(next(), next(), next()), write)
					step++
				}
			}
			seen.hits += p.seen.hits
			seen.mispredicts += p.seen.mispredicts
			seen.writebacks += p.seen.writebacks
			seen.invalidations += p.seen.invalidations
			seen.kept += p.seen.kept
			seen.dropped += p.seen.dropped
		}
	}
	if seen.hits == 0 || seen.mispredicts == 0 || seen.writebacks == 0 || seen.invalidations == 0 ||
		seen.kept == 0 || seen.dropped == 0 {
		t.Fatalf("the run missed a path: %+v", seen)
	}
	t.Logf("%+v", seen)
}

// FuzzResidencyMatchesReference drives the controller and the map-based
// reference with random lookups, writes and reconfigurations and requires
// identical results and counters.
func FuzzResidencyMatchesReference(f *testing.F) {
	// An op is a lookup, 0 unit where idx hi (refAddr's bytes; where&128
	// writes), or an Apply, 7 then per stream one control byte (0 leaves
	// it out, else refAllocation's mode is ctl>>1) and refAllocation's
	// bytes.
	sweep := func(units, n int, wheres ...byte) []byte {
		var ops []byte
		for i := 0; i < n; i++ {
			ops = append(ops, 0, byte(i%units), wheres[i%len(wheres)], byte(i*37), byte(i/7))
		}
		return ops
	}
	apply := func(units int, ctls ...byte) []byte {
		ops := []byte{7}
		for k, ctl := range ctls {
			ops = append(ops, ctl)
			if ctl != 0 && (ctl>>1)%4 != 3 {
				for u := 0; u < units; u++ {
					ops = append(ops, byte(u*29+k*11+int(ctl)))
				}
			}
		}
		return ops
	}
	var ops []byte
	ops = append(ops, apply(5, 1, 1, 1, 1)...)
	ops = append(ops, sweep(5, 200, 0, 1, 2, 3, 4, 129)...)
	ops = append(ops, apply(5, 3, 0, 5, 1)...) // regroup sid 1, grow sid 3
	ops = append(ops, sweep(5, 200, 1, 0, 130, 3, 2)...)
	ops = append(ops, apply(5, 7, 7, 0, 3)...) // drop sids 1 and 2
	ops = append(ops, sweep(5, 100, 0, 1, 2, 3)...)
	f.Add(uint8(0), uint8(4), true, ops)
	f.Add(uint8(1), uint8(4), true, ops)
	f.Add(uint8(2), uint8(4), false, ops)
	f.Add(uint8(3), uint8(2), true, ops)
	f.Fuzz(func(t *testing.T, mode, units uint8, consistent bool, ops []byte) {
		numUnits := 1 + int(units)%8
		p := newRefPair(t, refParams(mode), numUnits, consistent)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for step := 0; len(ops) > 0; step++ {
			if op := next(); op%8 != 7 {
				unit, where, idx, hi := int(next())%numUnits, next(), next(), next()
				p.lookup(step, unit, refAddr(where, idx, hi), where&128 != 0)
				continue
			}
			allocs := map[stream.ID]Allocation{}
			for _, rs := range refStreams {
				if ctl := next(); ctl != 0 {
					allocs[rs.sid] = p.refAllocation(rs.sid, ctl>>1, next)
				}
			}
			p.apply(step, allocs)
		}
	})
}

// FuzzLocateGuide checks the guide-table locate against bisection of the
// whole ring. Each 9-byte chunk of the input adds one spot and one probe
// item v, on one stream sid: the spot's hash is v itself, the probe's
// own hash (an exact hit), one off it on either side, or v shifted right
// so spots crowd the low buckets and leave the rest empty. A one-chunk
// input is a one-spot ring; repeated chunks give equal hashes.
func FuzzLocateGuide(f *testing.F) {
	chunk := func(kind byte, v uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, v)
	}
	f.Add(chunk(0, 1<<63))
	f.Add(append(chunk(1, 7), chunk(1, 7)...))
	f.Add(append(append(chunk(3|40<<2, ^uint64(0)), chunk(3|50<<2, 12345)...), chunk(2, 99)...))
	var many []byte
	for i := uint64(0); i < 40; i++ {
		many = append(many, chunk(byte(i*29), i*0x9e3779b97f4a7c15)...)
	}
	f.Add(many)
	f.Fuzz(func(t *testing.T, data []byte) {
		sid := stream.ID(3)
		probe := func(id uint64) uint64 { return hash64(id, uint64(sid)*0x6c62272e07bb0142+1) }
		var spots []spot
		var ids []uint64
		for ; len(data) >= 9; data = data[9:] {
			kind, v := data[0], binary.LittleEndian.Uint64(data[1:])
			h := v
			switch kind & 3 {
			case 1:
				h = probe(v)
			case 2:
				h = probe(v) + uint64(kind>>2&1)*2 - 1
			case 3:
				h = v >> (kind >> 2 & 63)
			}
			spots = append(spots, spot{hash: h, unit: int32(len(spots)), ord: uint32(kind)})
			ids = append(ids, v, v+1)
		}
		if len(spots) == 0 {
			return
		}
		r := newRing(spots)
		for _, id := range ids {
			if got, want := r.locate(sid, id), refLocate(r, sid, id); got != want {
				t.Fatalf("locate(%d) = %+v, want %+v over %d spots", id, got, want, len(spots))
			}
		}
	})
}
