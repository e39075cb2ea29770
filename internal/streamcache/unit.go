package streamcache

import "ndpext/internal/stream"

// slbState models one unit's stream lookahead buffer: a small
// fully-associative cache of remap-table entries, searched by address
// range (TCAM) and refilled from the host's full table on a miss.
// Functionally we track which streams' entries are resident.
//
// Residency is a dense last-use-tick array indexed by sid (0 = absent;
// ticks start at 1): the lookup on the per-access hot path is a plain
// load instead of a map probe. Victim selection scans the array for the
// minimum tick; ticks are unique within a unit, so the victim matches
// the map implementation's (tick, sid) tie-break exactly.
type slbState struct {
	cap    int
	last   []uint64 // sid -> last-use tick, 0 = not resident
	n      int      // resident entries
	tick   uint64
	hits   uint64
	misses uint64
}

func newSLB(capacity int) *slbState {
	return &slbState{cap: capacity, last: make([]uint64, stream.MaxStreams)}
}

// access looks up sid, refilling (with LRU eviction) on a miss.
// It reports whether the lookup hit.
func (s *slbState) access(sid stream.ID) bool {
	s.tick++
	if s.last[sid] != 0 {
		s.last[sid] = s.tick
		s.hits++
		return true
	}
	s.misses++
	if s.n >= s.cap {
		victim, oldest := -1, ^uint64(0)
		for id, t := range s.last {
			if t != 0 && t < oldest {
				oldest, victim = t, id
			}
		}
		s.last[victim] = 0
		s.n--
	}
	s.last[sid] = s.tick
	s.n++
	return false
}

// invalidate drops sid's entry (after a remap-table update).
func (s *slbState) invalidate(sid stream.ID) {
	if s.last[sid] != 0 {
		s.last[sid] = 0
		s.n--
	}
}

// resWay is one cached item (an affine block or an indirect element),
// packed into 16 bytes: the item ID, and one word holding the last-use
// tick above the dirty and valid bits. An empty way is all zero. Ticks
// are unique within a unit, so the order of the words of valid ways is
// their LRU order.
type resWay struct {
	id   uint64 // block ID (affine) or element ID (indirect)
	word uint64 // use<<useShift | wayDirty | wayValid
}

const (
	wayValid = 1 << 0
	wayDirty = 1 << 1
	useShift = 2
)

func (w resWay) valid() bool { return w.word&wayValid != 0 }
func (w resWay) dirty() bool { return w.word&wayDirty != 0 }

// setMeta is one set's round-robin victim cursor and the MRU way used by
// the way predictor (§IV-C's cited alternative to direct mapping:
// predict the way, fall back to a second access on a misprediction).
type setMeta struct {
	rr  uint8
	mru uint8
}

// A residency table allocates its sets in pages of pageSets sets, on
// first touch: a run touches a small share of the indirect sets that
// its shares could hold.
const (
	pageShift = 3
	pageSets  = 1 << pageShift
)

// resTable holds the resident items of one stream on one unit: numSets
// sets of `ways` ways each, set-major. Affine streams index it by their
// ATA set, indirect streams by ord*rowSets + set (see index). A set that
// holds no item has zero metadata, as a freshly allocated one does.
type resTable struct {
	ways     int
	numSets  int
	rowSets  uint64    // sets per row ordinal; 0 for affine (one set space per unit)
	hashSets uint64    // modulus of the set hash
	seed     uint64    // set hash seed
	page     []int32   // page -> its index in way/meta; -1 = untouched
	way      []resWay  // touched pages, pageSets*ways ways each
	meta     []setMeta // touched pages, pageSets sets each
}

func newResTable(sets, ways int, rowSets, hashSets, seed uint64) resTable {
	t := resTable{ways: ways, numSets: sets, rowSets: rowSets, hashSets: hashSets, seed: seed,
		page: make([]int32, (sets+pageSets-1)>>pageShift)}
	for i := range t.page {
		t.page[i] = -1
	}
	return t
}

// index returns the set of item id at row ordinal ord.
func (t *resTable) index(ord uint32, id uint64) int {
	return int(uint64(ord)*t.rowSets + hash64(id, t.seed)%t.hashSets)
}

// set returns set i's ways and metadata, allocating its page on first
// touch.
func (t *resTable) set(i int) ([]resWay, *setMeta) {
	p := t.page[i>>pageShift]
	if p < 0 {
		p = int32(len(t.meta) >> pageShift)
		t.page[i>>pageShift] = p
		t.way = append(t.way, make([]resWay, pageSets*t.ways)...)
		t.meta = append(t.meta, make([]setMeta, pageSets)...)
	}
	s := int(p)<<pageShift | i&(pageSets-1)
	return t.way[s*t.ways : (s+1)*t.ways], &t.meta[s]
}

// count returns the valid items in t and how many of them are dirty.
func (t *resTable) count() (items, dirty int) {
	for _, w := range t.way {
		if w.valid() {
			items++
			if w.dirty() {
				dirty++
			}
		}
	}
	return items, dirty
}

// drop empties t, keeping its geometry, and returns the item count and
// how many were dirty.
func (t *resTable) drop() (items, dirty int) {
	items, dirty = t.count()
	t.way, t.meta = nil, nil
	for i := range t.page {
		t.page[i] = -1
	}
	return items, dirty
}

// unitState is the per-NDP-unit cache state.
type unitState struct {
	slb  *slbState
	tick uint64
}

// lookup finds id in set i of t, one of this unit's tables, and on a
// miss allocates a way and reports the victim. Replacement is LRU when
// lru is set (the ATA's SRAM tags track recency) and round-robin
// otherwise (the embedded DRAM tags of indirect elements have no
// recency bits).
func (u *unitState) lookup(t *resTable, i int, id uint64, write, lru bool) (hit bool, victim resWay, mispredict bool) {
	u.tick++
	use := u.tick << useShift
	if write {
		use |= wayDirty
	}
	ways, m := t.set(i)
	for j := range ways {
		w := &ways[j]
		if w.valid() && w.id == id {
			w.word = use | w.word&wayDirty | wayValid
			mispredict = len(ways) > 1 && int(m.mru) != j
			m.mru = uint8(j)
			return true, resWay{}, mispredict
		}
	}
	vi := -1
	for j := range ways {
		if !ways[j].valid() {
			vi = j
			break
		}
	}
	if vi < 0 {
		if lru {
			vi = 0
			for j := 1; j < len(ways); j++ {
				if ways[j].word < ways[vi].word {
					vi = j
				}
			}
		} else {
			vi = int(m.rr) % len(ways)
			m.rr++
		}
		victim = ways[vi]
	}
	ways[vi] = resWay{id: id, word: use | wayValid}
	m.mru = uint8(vi)
	return false, victim, false
}
