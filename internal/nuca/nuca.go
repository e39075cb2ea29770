// Package nuca implements the baseline NUCA designs the paper compares
// against (§VI "Baseline designs"): a conventional cacheline-granularity
// distributed DRAM cache managed by Jigsaw, Whirlpool, Nexus, or static
// interleaving, adapted to the NDP-with-extended-memory architecture.
//
// Unlike NDPExt's stream cache, these designs track individual 64 B
// cachelines, so their metadata (location + tag) does not fit on-chip:
// each access first performs a metadata lookup, served by a per-unit
// 128 kB metadata cache (idealized dual-granularity, Bi-Modal style:
// metadata per 512 B block, migration at 64 B) and falling back to a DRAM
// access at the line's home unit on a metadata-cache miss.
package nuca

import (
	"fmt"
	"slices"

	"ndpext/internal/cache"
	"ndpext/internal/energy"
	"ndpext/internal/stream"
	"ndpext/internal/streamcache"
)

// Kind selects the baseline design.
type Kind int

const (
	// StaticInterleave spreads cachelines across all units by address
	// hash (the S-NUCA policy used in Fig. 2's motivation study).
	StaticInterleave Kind = iota
	// Jigsaw partitions capacity by miss curves with center-of-mass
	// placement; data shared by several cores falls into one global
	// interleaved partition. No replication.
	Jigsaw
	// Whirlpool is Jigsaw with static data-structure classification:
	// every stream gets its own partition, placed at its accessors'
	// center of mass. No replication.
	Whirlpool
	// Nexus is Whirlpool plus replication of read-only data with one
	// global replication degree shared by all streams.
	Nexus
)

// String returns the design name.
func (k Kind) String() string {
	switch k {
	case StaticInterleave:
		return "static-interleave"
	case Jigsaw:
		return "jigsaw"
	case Whirlpool:
		return "whirlpool"
	case Nexus:
		return "nexus"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params sizes the baseline cache structures.
type Params struct {
	LineBytes      int // cacheline size (64)
	MetaBlockBytes int // dual-granularity metadata block (512)
	MetaCacheBytes int // per-unit metadata cache capacity (128 kB in the paper)
	MetaEntryBytes int // metadata entry size: one entry covers one MetaBlock
	MetaCacheAssoc int
	RowBytes       int // DRAM row size
}

// DefaultParams returns the paper's baseline configuration: 64 B lines,
// an idealized dual-granularity (Bi-Modal style) metadata cache with one
// ~8 B entry per 512 B block, 128 kB of it per unit.
func DefaultParams() Params {
	return Params{
		LineBytes:      64,
		MetaBlockBytes: 512,
		MetaCacheBytes: 128 << 10,
		MetaEntryBytes: 8,
		MetaCacheAssoc: 8,
		RowBytes:       2048,
	}
}

// MetaEntries returns the metadata cache's entry count.
func (p Params) MetaEntries() int {
	n := p.MetaCacheBytes / p.MetaEntryBytes
	if n < p.MetaCacheAssoc {
		n = p.MetaCacheAssoc
	}
	return n
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.LineBytes <= 0 || p.MetaBlockBytes < p.LineBytes || p.RowBytes < p.LineBytes {
		return fmt.Errorf("nuca: invalid line/meta/row geometry %+v", p)
	}
	if p.MetaCacheBytes <= 0 || p.MetaCacheAssoc <= 0 || p.MetaEntryBytes <= 0 {
		return fmt.Errorf("nuca: invalid metadata cache geometry")
	}
	return nil
}

// miscSID keys the partition that holds non-stream addresses.
const miscSID = stream.ID(stream.MaxStreams) // outside the valid sid space

// Controller is the baseline cacheline cache: remapping state plus
// per-unit metadata caches and resident-line tracking.
type Controller struct {
	kind     Kind
	params   Params
	numUnits int
	unitRows uint32
	table    *stream.Table

	// Allocations and per-stream stats are dense arrays indexed by sid
	// (with one extra slot for miscSID), so the per-access Lookup pays
	// plain loads instead of map probes.
	allocs   []streamcache.Allocation
	hasAlloc []bool
	places   []placement    // per sid: index and line table of allocs[sid]
	meta     []*cache.Cache // per-unit metadata caches
	acc      *streamcache.AccessCounts
	stats    Stats
	perSID   []streamcache.StreamStats
}

// sidSlots is the dense index space: every representable sid plus the
// misc partition key right above it.
const sidSlots = int(miscSID) + 1

// placement indexes one stream's installed allocation for Lookup and
// holds the stream's resident lines.
type placement struct {
	total  uint64       // allocated rows over all units
	groups []groupIndex // by group id, for every id in Allocation.Groups
	// lines has one entry per slot: each unit's Shares[u]×linesPerRow
	// slots in unit order. Unit 0 always gets at least one row of
	// entries, for placeLine's degenerate no-space branch.
	lines []lineVal
}

// groupIndex is one replication group's row space: its units with
// space, in unit order, each starting where the previous one ends.
type groupIndex struct {
	rows  uint64
	spans []span
}

// span is one unit's range of its group's rows.
type span struct {
	start uint64 // the group's rows before this unit
	unit  int
	first int // index of the unit's first slot in placement.lines
}

// lineVal is one line-table entry: the cached line address shifted left
// two bits, then the dirty bit and the valid bit.
type lineVal uint64

const (
	lineValid lineVal = 1 << iota
	lineDirty
)

// residentLine is the entry of a freshly filled line.
func residentLine(line uint64, dirty bool) lineVal {
	v := lineVal(line<<2) | lineValid
	if dirty {
		v |= lineDirty
	}
	return v
}

// Stats aggregates baseline cache activity.
type Stats struct {
	Lookups    uint64
	Hits       uint64
	Misses     uint64
	MetaHits   uint64
	MetaMisses uint64
	Writebacks uint64
}

// NewController builds the baseline cache. unitRows is the DRAM cache
// capacity per unit in rows.
func NewController(kind Kind, p Params, numUnits int, unitRows uint32, tbl *stream.Table) *Controller {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if numUnits <= 0 || unitRows == 0 {
		panic(fmt.Sprintf("nuca: %d units x %d rows", numUnits, unitRows))
	}
	c := &Controller{
		kind: kind, params: p, numUnits: numUnits, unitRows: unitRows, table: tbl,
		allocs:   make([]streamcache.Allocation, sidSlots),
		hasAlloc: make([]bool, sidSlots),
		places:   make([]placement, sidSlots),
		perSID:   make([]streamcache.StreamStats, sidSlots),
		acc:      streamcache.NewAccessCounts(numUnits),
	}
	for i := 0; i < numUnits; i++ {
		// The metadata cache is keyed by metadata-block index: one entry
		// per MetaBlockBytes of data.
		c.meta = append(c.meta, cache.New(p.MetaEntries(), 1, p.MetaCacheAssoc))
	}
	if kind == StaticInterleave {
		c.install(miscSID, interleavedAllocation(numUnits, unitRows))
	} else {
		// Reserve a small interleaved partition for non-stream data.
		c.install(miscSID, interleavedAllocation(numUnits, miscRows(unitRows)))
	}
	return c
}

// install makes a sid's allocation and rebuilds its placement index
// and an empty line table, reusing the previous one's arrays.
func (c *Controller) install(sid stream.ID, a streamcache.Allocation) {
	c.allocs[sid] = a
	c.hasAlloc[sid] = true
	p := &c.places[sid]
	ng := 0
	for _, g := range a.Groups {
		ng = max(ng, int(g)+1)
	}
	p.groups = slices.Grow(p.groups[:0], ng)[:ng]
	for g := range p.groups {
		p.groups[g].rows = 0
		p.groups[g].spans = p.groups[g].spans[:0]
	}
	lpr := c.linesPerRow()
	p.total = 0
	n := 0
	for u, s := range a.Shares {
		rows := uint64(s)
		if s > 0 {
			g := &p.groups[a.Groups[u]]
			g.spans = append(g.spans, span{start: g.rows, unit: u, first: n})
			g.rows += rows
			p.total += rows
		}
		if u == 0 {
			rows = max(rows, 1)
		}
		n += int(rows * lpr)
	}
	p.lines = slices.Grow(p.lines[:0], n)[:n]
	clear(p.lines)
}

// miscRows is the per-unit reservation of the partitioned kinds' misc
// partition, which caches non-stream data.
func miscRows(unitRows uint32) uint32 { return unitRows/32 + 1 }

// interleavedAllocation spreads rows evenly over all units, one group.
func interleavedAllocation(numUnits int, rows uint32) streamcache.Allocation {
	a := streamcache.NewAllocation(numUnits)
	for u := range a.Shares {
		a.Shares[u] = rows
	}
	return a
}

// Allocation returns the installed allocation for sid, if any.
func (c *Controller) Allocation(sid stream.ID) (streamcache.Allocation, bool) {
	if int(sid) >= len(c.allocs) || !c.hasAlloc[sid] {
		return streamcache.Allocation{}, false
	}
	return c.allocs[sid], true
}

// Lookup is the outcome of one baseline access.
type Lookup struct {
	SID     stream.ID
	Home    int   // unit serving the line
	HomeRow int64 // DRAM row of the line at the home unit

	MetaHit     bool  // requester's metadata cache hit
	MetaDRAMRow int64 // metadata row accessed at the home unit on a miss

	Hit            bool
	FetchBytes     int
	WritebackBytes int
}

// Lookup resolves the access (addr, write) from NDP unit `unit`.
func (c *Controller) Lookup(unit int, addr uint64, write bool) Lookup {
	c.stats.Lookups++
	var r Lookup
	line := addr / uint64(c.params.LineBytes)

	sid := miscSID
	if s := c.table.FindByAddr(addr); s != nil {
		c.acc.Add(unit, s.SID)
		// Static interleave caches every stream in its one partition
		// and counts their accesses for analysis only.
		if c.kind != StaticInterleave {
			sid = s.SID
		}
	}
	r.SID = sid

	if !c.hasAlloc[sid] || c.places[sid].total == 0 {
		// Stream with no partition: fall back to the misc partition.
		sid = miscSID
		r.SID = sid
	}

	// Pick the replication group: the group whose member set contains
	// this unit (Groups vector covers every unit).
	alloc := &c.allocs[sid]
	pl := &c.places[sid]
	home, ord, idx := pl.placeLine(sid, alloc.Groups[unit], line, c.linesPerRow())
	r.Home = home
	r.HomeRow = int64(alloc.RowBase[home]) + int64(ord)

	// Metadata lookup at the requester; metadata for a line lives with
	// its home unit's DRAM. The cache is keyed by metadata-block index.
	metaBlock := line / uint64(c.params.MetaBlockBytes/c.params.LineBytes)
	hit, _, _ := c.meta[unit].Access(metaBlock, false)
	r.MetaHit = hit
	if hit {
		c.stats.MetaHits++
	} else {
		c.stats.MetaMisses++
		// The metadata row shares the home unit's DRAM; model it in the
		// top rows above the data rows.
		r.MetaDRAMRow = int64(c.unitRows) + int64(metaBlock)%64
	}

	e := &pl.lines[idx]
	if *e&^lineDirty == residentLine(line, false) {
		r.Hit = true
		if write {
			*e |= lineDirty
		}
		c.stats.Hits++
		c.perSID[sid].Hits++
		return r
	}
	c.stats.Misses++
	c.perSID[sid].Misses++
	r.FetchBytes = c.params.LineBytes
	if *e&lineDirty != 0 {
		r.WritebackBytes = c.params.LineBytes
		c.stats.Writebacks++
	}
	*e = residentLine(line, write)
	return r
}

// linesPerRow returns cachelines per DRAM row.
func (c *Controller) linesPerRow() uint64 {
	return uint64(c.params.RowBytes / c.params.LineBytes)
}

// placeLine maps a line requested from a unit of group g to its home
// unit, its row ordinal there and its index in the line table. The
// group's slots are spread over its units in proportion to their
// shares, and the line picks a slot by hash. A group without space is
// served from group 0's space; if that has none too, the line goes to
// unit 0 (degenerate; Lookup sends streams without rows to the misc
// partition).
func (p *placement) placeLine(sid stream.ID, g uint8, line, linesPerRow uint64) (home int, ord uint32, idx int) {
	gi := &p.groups[g]
	if gi.rows == 0 {
		gi = &p.groups[0]
		if gi.rows == 0 {
			return 0, 0, int(line % linesPerRow)
		}
	}
	slot := lineHash(uint64(sid), line) % (gi.rows * linesPerRow)
	row := slot / linesPerRow
	// The last unit whose rows start at or before row.
	lo, hi := 0, len(gi.spans)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if gi.spans[mid].start <= row {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	sp := &gi.spans[lo]
	return sp.unit, uint32(row - sp.start), sp.first + int(slot-sp.start*linesPerRow)
}

// lineHash mixes the line address with the stream id.
func lineHash(sid, line uint64) uint64 {
	x := line ^ sid*0x9e3779b97f4a7c15 ^ 0x1234
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Apply installs a new configuration and bulk-invalidates the changed
// streams' lines (the Jigsaw/Whirlpool/Nexus reconfiguration model):
// every line examined is dropped, none kept.
func (c *Controller) Apply(newAllocs map[stream.ID]streamcache.Allocation) (streamcache.ReconfigStats, error) {
	var rs streamcache.ReconfigStats
	for sid, a := range newAllocs {
		if err := a.Validate(c.numUnits); err != nil {
			return rs, err
		}
		if c.hasAlloc[sid] && c.allocs[sid].Equal(a) {
			continue
		}
		rs.StreamsChanged++
		for _, v := range c.places[sid].lines {
			if v&lineValid == 0 {
				continue
			}
			rs.ItemsExamined++
			rs.ItemsDropped++
			if v&lineDirty != 0 {
				rs.Writebacks++
				c.stats.Writebacks++
			}
		}
		c.install(sid, a.Clone())
	}
	return rs, nil
}

// EpochAccesses returns the live access counts Lookup adds to, by the
// stream an access belongs to (never the misc partition); the caller
// clears them when it starts a new epoch.
func (c *Controller) EpochAccesses() *streamcache.AccessCounts { return c.acc }

// Stats returns a copy of the aggregate counters.
func (c *Controller) Stats() Stats { return c.stats }

// ItemBytes is what one cached item occupies: a cacheline, whatever the
// stream.
func (c *Controller) ItemBytes(*stream.Stream) int { return c.params.LineBytes }

// Footprint is the cache space a full copy of st occupies.
func (c *Controller) Footprint(st *stream.Stream) int64 { return int64(st.Size) }

// CacheCounts returns the DRAM-cache hits and misses.
func (c *Controller) CacheCounts() (hits, misses uint64) { return c.stats.Hits, c.stats.Misses }

// SRAMPJ returns the access energy of the controller's SRAM structure,
// the per-unit metadata cache.
func (c *Controller) SRAMPJ() []float64 {
	return []float64{float64(c.stats.MetaHits+c.stats.MetaMisses) * energy.MetaCachePJ}
}

// StreamStatsFor returns sid's hit/miss counters.
func (c *Controller) StreamStatsFor(sid stream.ID) streamcache.StreamStats {
	if int(sid) >= len(c.perSID) {
		return streamcache.StreamStats{}
	}
	return c.perSID[sid]
}
