package streamcache

import (
	"fmt"

	"ndpext/internal/energy"
	"ndpext/internal/stream"
)

// Controller is the stream cache of the whole NDP system: the centralized
// remap state plus the per-unit SLBs and resident-item tracking. The
// system simulator calls Lookup for every L1 miss and charges latencies
// according to the returned route; the host runtime calls Apply at each
// epoch boundary with the new configuration.
// Controller state reached on every access (allocations, rings,
// residency tables, per-stream stats) is held in dense arrays indexed by
// the 9-bit stream ID instead of maps: the per-access Lookup then costs
// plain loads where the map version paid a hash and probe per structure.
type Controller struct {
	params     Params
	numUnits   int
	table      *stream.Table
	consistent bool         // Apply keeps items whose consistent-hash spot survives
	allocs     []Allocation // by sid; zero Shares length = none installed
	hasAlloc   []bool       // by sid
	rings      [][]*ring    // by sid, then by group ID (nil = no ring)
	res        [][]resTable // by sid, then unit; nil until sid's first allocation
	units      []*unitState
	acc        *AccessCounts
	stats      Stats
	perSID     []StreamStats // by sid
}

// Stats aggregates controller-wide activity.
type Stats struct {
	Lookups         uint64
	Hits            uint64
	Misses          uint64
	Bypasses        uint64 // non-stream accesses (direct to extended memory)
	NoSpace         uint64 // stream accesses with no allocated cache space
	SLBHits         uint64
	SLBMisses       uint64
	WriteExceptions uint64
	Writebacks      uint64
}

// StreamStats tracks per-stream hit behaviour (used for Fig. 7 miss
// rates and by the profiler).
type StreamStats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses/(hits+misses), or 0 when idle.
func (s StreamStats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// NewController builds the stream cache over numUnits NDP units, using
// the stream registry tbl. With consistent set, reconfiguration keeps
// the cached data whose consistent-hash spot is unchanged (§V-D);
// otherwise it bulk-invalidates changed streams. It panics on invalid
// parameters (construction configuration, not runtime input).
func NewController(p Params, numUnits int, tbl *stream.Table, consistent bool) *Controller {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if numUnits <= 0 {
		panic(fmt.Sprintf("streamcache: numUnits = %d", numUnits))
	}
	c := &Controller{
		params:     p,
		numUnits:   numUnits,
		table:      tbl,
		consistent: consistent,
		allocs:     make([]Allocation, stream.MaxStreams),
		hasAlloc:   make([]bool, stream.MaxStreams),
		rings:      make([][]*ring, stream.MaxStreams),
		res:        make([][]resTable, stream.MaxStreams),
		perSID:     make([]StreamStats, stream.MaxStreams),
		acc:        NewAccessCounts(numUnits),
	}
	for i := 0; i < numUnits; i++ {
		c.units = append(c.units, &unitState{slb: newSLB(p.SLBEntries)})
	}
	return c
}

// Params returns the design parameters.
func (c *Controller) Params() Params { return c.params }

// Allocation returns the current allocation for sid (zero-value
// allocation if none installed).
func (c *Controller) Allocation(sid stream.ID) (Allocation, bool) {
	if int(sid) >= len(c.allocs) || !c.hasAlloc[sid] {
		return Allocation{}, false
	}
	return c.allocs[sid], true
}

// ringOf returns the consistent-hash ring for (sid, group), or nil.
func (c *Controller) ringOf(sid stream.ID, g uint8) *ring {
	rs := c.rings[sid]
	if int(g) >= len(rs) {
		return nil
	}
	return rs[g]
}

// Lookup is the result of resolving one memory access through the stream
// cache. Latency composition happens in the system simulator; this
// captures the route and the functional outcome.
type Lookup struct {
	SID    stream.ID
	Bypass bool // not a stream: access extended memory directly

	SLBMissLocal bool // requester's SLB missed (host refill round trip)
	SLBMissHome  bool // home unit's SLB missed

	Home    int    // unit whose DRAM serves/caches the item
	HomeRow int64  // absolute DRAM row at the home unit
	Affine  bool   // affine stream (ATA lookup) vs indirect (embedded tag)
	ItemID  uint64 // block ID (affine) or element ID (indirect)

	Hit     bool
	NoSpace bool // no cache space allocated for this unit's group
	// WayMispredict reports an MRU way-predictor miss on a cache hit
	// (only when Params.WayPredict and IndirectWays > 1): the home unit
	// pays a second DRAM access to find the right way.
	WayMispredict bool
	FetchBytes    int // bytes fetched from extended memory on a miss
	ItemBytes     int // the item's data: an affine block or an indirect element

	WritebackBytes int // dirty victim written back to extended memory

	WriteException         bool // first write to a read-only stream (§IV-B)
	ExceptionInvalidations int  // replicas dropped by the exception
}

// Lookup resolves the access (addr, write) issued by NDP unit `unit`
// into r, which it overwrites.
func (c *Controller) Lookup(unit int, addr uint64, write bool, r *Lookup) {
	*r = Lookup{}
	c.stats.Lookups++

	s := c.table.FindByAddr(addr)
	if s == nil {
		r.Bypass = true
		r.SID = stream.NoStream
		c.stats.Bypasses++
		return
	}
	r.SID = s.SID
	r.Affine = s.Type == stream.Affine
	c.acc.Add(unit, s.SID)

	// Requester-side SLB.
	if !c.units[unit].slb.access(s.SID) {
		r.SLBMissLocal = true
		c.stats.SLBMisses++
	} else {
		c.stats.SLBHits++
	}

	// First write to a read-only stream raises a host exception that
	// collapses the stream to a single replication group (§IV-B).
	if write && s.ReadOnly {
		r.WriteException = true
		c.stats.WriteExceptions++
		r.ExceptionInvalidations = c.handleWriteException(s)
	}

	elem, ok := s.ElemID(addr)
	if !ok {
		// Range matched by FindByAddr, so this cannot happen; defensive.
		panic(fmt.Sprintf("streamcache: address %#x lost from %v", addr, s))
	}
	r.ItemID = elem
	itemBytes := int(s.ElemSize)
	if r.Affine {
		r.ItemID = elem * uint64(s.ElemSize) / uint64(c.params.BlockBytes)
		itemBytes = c.params.BlockBytes
	}
	r.ItemBytes = itemBytes

	alloc := &c.allocs[s.SID]
	var rg *ring
	if c.hasAlloc[s.SID] {
		rg = c.ringOf(s.SID, alloc.Groups[unit])
	}
	if rg == nil {
		// No allocation for the stream, or none for this unit's group.
		r.NoSpace = true
		r.Home = unit
		r.FetchBytes = itemBytes
		c.stats.NoSpace++
		c.perSID[s.SID].Misses++
		return
	}

	sp := rg.locate(s.SID, r.ItemID)
	r.Home = int(sp.unit)
	r.HomeRow = int64(alloc.RowBase[sp.unit]) + int64(sp.ord)

	// Home-side SLB (the paper looks up the SLB again at the destination
	// to obtain the remap row base).
	if r.Home != unit {
		hs := c.units[r.Home].slb
		if !hs.access(s.SID) {
			r.SLBMissHome = true
			c.stats.SLBMisses++
		} else {
			c.stats.SLBHits++
		}
	}

	t := &c.res[s.SID][sp.unit]
	hit, victim, mispredict := c.units[r.Home].lookup(t, t.index(sp.ord, r.ItemID), r.ItemID, write, r.Affine)
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
		if victim.valid() && victim.dirty() {
			r.WritebackBytes = itemBytes
			c.stats.Writebacks++
		}
	}
}

// newTable returns an empty residency table for s's items on a unit
// that holds share rows of it.
//
// Indirect streams are direct-mapped (or IndirectWays-associative) within
// their DRAM row: the embedded tags leave no room for cheap wide
// associativity (§IV-C), so each row ordinal has its own rowSets sets.
// Affine streams use the ATA's set-associative SRAM tags: AffineWays
// consecutive block slots (spanning several row ordinals when a row holds
// fewer blocks than ways) form one set, which is what kills the conflict
// misses a direct-mapped block array would suffer on strided sweeps.
func (c *Controller) newTable(s *stream.Stream, share uint32) resTable {
	if share == 0 {
		return resTable{}
	}
	if s.Type == stream.Affine {
		itemsPerRow := max(c.params.RowBytes/c.params.BlockBytes, 1)
		rowsPerSet := max(c.params.AffineWays/itemsPerRow, 1)
		// The ATA indexes sets uniformly within the unit's share by a
		// plain modulo (set-index bits), rather than by the block's
		// consistent-hash spot: the ring's per-spot load variance would
		// overload some sets and thrash them.
		numSets := max(int(share)/rowsPerSet, 1)
		return newResTable(numSets, rowsPerSet*itemsPerRow, 0, uint64(numSets), uint64(s.SID)+0x5e7)
	}
	itemsPerRow := max(c.params.RowBytes/(int(s.ElemSize)+c.params.TagBytes), 1)
	rowSets := max(itemsPerRow/c.params.IndirectWays, 1)
	return newResTable(int(share)*rowSets, c.params.IndirectWays, uint64(rowSets), uint64(rowSets),
		uint64(s.SID)+0xabcd)
}

// handleWriteException clears the stream's read-only bit and collapses
// its replication groups to the single largest one, invalidating the
// other replicas (clean by construction, so no writebacks). It returns
// the number of invalidated items.
func (c *Controller) handleWriteException(s *stream.Stream) int {
	s.ReadOnly = false
	if !c.hasAlloc[s.SID] {
		return 0
	}
	alloc := c.allocs[s.SID]
	groups := alloc.GroupIDs()
	if len(groups) <= 1 {
		return 0
	}
	// Keep the group with the most rows; fold everything else into it.
	keep := groups[0]
	for _, g := range groups[1:] {
		if alloc.GroupRows(g) > alloc.GroupRows(keep) {
			keep = g
		}
	}
	invalidated := 0
	for u := range alloc.Groups {
		if alloc.Groups[u] != keep && alloc.Shares[u] > 0 {
			n, _ := c.res[s.SID][u].drop()
			invalidated += n
		}
		alloc.Groups[u] = keep
	}
	c.allocs[s.SID] = alloc
	c.hasAlloc[s.SID] = true
	c.rebuildRings(s.SID, alloc)
	c.invalidateSLBs(s.SID)
	return invalidated
}

// rebuildRings reconstructs the consistent-hash rings of sid for alloc.
func (c *Controller) rebuildRings(sid stream.ID, alloc Allocation) {
	c.rings[sid] = nil
	for _, g := range alloc.GroupIDs() {
		if rg := buildRing(sid, alloc, g); rg != nil {
			for int(g) >= len(c.rings[sid]) {
				c.rings[sid] = append(c.rings[sid], nil)
			}
			c.rings[sid][g] = rg
		}
	}
	// Units whose group has no rows keep a nil ring (NoSpace on access).
}

// invalidateSLBs drops sid's entry from every unit's SLB (remap change).
func (c *Controller) invalidateSLBs(sid stream.ID) {
	for _, u := range c.units {
		u.slb.invalidate(sid)
	}
}

// ReconfigStats reports what a configuration change did to cached data.
type ReconfigStats struct {
	StreamsChanged int
	ItemsExamined  int
	ItemsKept      int // survived in place (consistent hashing)
	ItemsDropped   int // invalidated (refetched on demand later)
	Writebacks     int // dirty items flushed to extended memory
}

// Apply installs a new configuration for the given streams. Under
// consistent hashing, data whose consistent-hash spot is unchanged stays
// cached (§V-D); otherwise the changed streams' cached data is bulk
// invalidated (the Jigsaw/CDCS approach).
func (c *Controller) Apply(newAllocs map[stream.ID]Allocation) (ReconfigStats, error) {
	var rs ReconfigStats
	for sid, a := range newAllocs {
		if err := a.Validate(c.numUnits); err != nil {
			return rs, err
		}
		if s := c.table.Get(sid); s == nil {
			return rs, fmt.Errorf("streamcache: allocation for unknown stream %d", sid)
		} else if !s.ReadOnly && len(a.GroupIDs()) > 1 {
			return rs, fmt.Errorf("streamcache: stream %d is writable but has %d replication groups",
				sid, len(a.GroupIDs()))
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
		if c.res[sid] == nil {
			c.res[sid] = make([]resTable, c.numUnits)
		}
		for u := range c.res[sid] {
			next := c.newTable(s, a.Shares[u])
			if c.consistent {
				c.keepSurvivors(&rs, sid, u, &next)
			} else {
				n, d := c.res[sid][u].count()
				rs.ItemsExamined += n
				rs.ItemsDropped += n
				rs.Writebacks += d
			}
			c.res[sid][u] = next
		}
	}
	c.stats.Writebacks += uint64(rs.Writebacks)
	return rs, nil
}

// keepSurvivors moves into next, the table of unit u under sid's newly
// installed allocation, the items of u's current table whose home set is
// unchanged: same unit, row ordinal and set (§V-D). It counts the rest as
// dropped. A survivor keeps its way, and its set keeps its metadata.
func (c *Controller) keepSurvivors(rs *ReconfigStats, sid stream.ID, u int, next *resTable) {
	t := &c.res[sid][u]
	rg := c.ringOf(sid, c.allocs[sid].Groups[u])
	for pi, p := range t.page {
		if p < 0 {
			continue
		}
		for k := 0; k < pageSets; k++ {
			i := pi<<pageShift | k
			if i >= t.numSets {
				break
			}
			s := int(p)<<pageShift | k
			ways := t.way[s*t.ways : (s+1)*t.ways]
			kept := false
			for j := range ways {
				w := &ways[j]
				if !w.valid() {
					continue
				}
				rs.ItemsExamined++
				if rg != nil {
					if sp := rg.locate(sid, w.id); int(sp.unit) == u && next.index(sp.ord, w.id) == i {
						rs.ItemsKept++
						kept = true
						continue
					}
				}
				rs.ItemsDropped++
				if w.dirty() {
					rs.Writebacks++
				}
				*w = resWay{}
			}
			if kept {
				nw, nm := next.set(i)
				copy(nw, ways)
				*nm = t.meta[s]
			}
		}
	}
}

// EpochAccesses returns the live access counts Lookup adds to; the
// caller clears them when it starts a new epoch.
func (c *Controller) EpochAccesses() *AccessCounts { return c.acc }

// AccessCounts counts one epoch's accesses by stream and NDP unit: each
// unit's 512-bit accessed-stream bitvector (§V-B) enriched with counts,
// which the configuration algorithm also uses as placement weights. Both
// DRAM-cache controllers count into one from Lookup, where they resolve
// the stream; the host runtime reads it in place at each epoch boundary
// and then clears it.
type AccessCounts struct {
	units int
	n     []uint64 // stream-major: n[sid*units+unit]
}

// NewAccessCounts returns zeroed counts over units NDP units.
func NewAccessCounts(units int) *AccessCounts {
	return &AccessCounts{units: units, n: make([]uint64, stream.MaxStreams*units)}
}

// Add counts one access to sid from unit.
func (a *AccessCounts) Add(unit int, sid stream.ID) { a.n[int(sid)*a.units+unit]++ }

// Of returns sid's counts by unit. The slice aliases the counts.
func (a *AccessCounts) Of(sid stream.ID) []uint64 {
	i := int(sid) * a.units
	return a.n[i : i+a.units]
}

// Reset clears every count.
func (a *AccessCounts) Reset() { clear(a.n) }

// Stats returns a copy of the aggregate statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ItemBytes is what one cached item of st occupies: an affine block, or
// an indirect element with its embedded tag.
func (c *Controller) ItemBytes(st *stream.Stream) int {
	if st.Type == stream.Affine {
		return c.params.BlockBytes
	}
	return int(st.ElemSize) + c.params.TagBytes
}

// Footprint is the cache space a full copy of st occupies (indirect
// elements store their tags with the data).
func (c *Controller) Footprint(st *stream.Stream) int64 {
	if st.Type == stream.Affine {
		return int64(st.Size)
	}
	return int64(st.NumElements()) * int64(c.ItemBytes(st))
}

// CacheCounts returns the DRAM-cache hits and misses. Every access the
// cache did not serve is a miss: stream misses, stream accesses with no
// allocated space, and non-stream bypasses.
func (c *Controller) CacheCounts() (hits, misses uint64) {
	return c.stats.Hits, c.stats.Misses + c.stats.NoSpace + c.stats.Bypasses
}

// SRAMPJ returns the access energy of the controller's SRAM structures
// (§VI models them with CACTI): the SLB probes, then the ATA tag reads.
func (c *Controller) SRAMPJ() []float64 {
	return []float64{
		float64(c.stats.SLBHits+c.stats.SLBMisses) * energy.SLBAccessPJ,
		float64(c.stats.Hits+c.stats.Misses) * energy.ATAAccessPJ,
	}
}

// StreamStatsFor returns a copy of sid's counters.
func (c *Controller) StreamStatsFor(sid stream.ID) StreamStats {
	if int(sid) >= len(c.perSID) {
		return StreamStats{}
	}
	return c.perSID[sid]
}

// ResidentItems counts currently cached items for sid on unit u (testing
// and occupancy reporting).
func (c *Controller) ResidentItems(u int, sid stream.ID) int {
	if c.res[sid] == nil {
		return 0
	}
	n, _ := c.res[sid][u].count()
	return n
}
