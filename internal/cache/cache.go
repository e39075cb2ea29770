// Package cache implements set-associative SRAM caches with LRU
// replacement. It backs the per-core L1 caches of the NDP units and the
// per-unit metadata caches used by the baseline NUCA designs
// (Jigsaw/Whirlpool/Nexus adapted to a DRAM cache need a metadata lookup
// before each data access; see paper §VI "Baseline designs").
package cache

import "fmt"

// Cache is a set-associative cache indexed by address. It stores tags
// only (the simulator never stores data contents). Not safe for
// concurrent use.
//
// The ways of all sets sit in one set-major array, numSets*assoc long,
// so a lookup is one index computation and no pointer load.
type Cache struct {
	lineBytes int
	assoc     int
	numSets   int
	ways      []way
	tick      uint64
	stats     Stats
}

// way is one line's tag, packed into 16 bytes: the line address, and one
// word holding the last-use tick above the dirty and valid bits. An
// invalid way is all zero, and ticks are unique, so the smallest word of
// a set is its first invalid way if it has one and else its LRU way.
type way struct {
	tag  uint64 // full line address
	word uint64 // lru<<lruShift | wayDirty | wayValid
}

const (
	wayValid = 1 << 0
	wayDirty = 1 << 1
	lruShift = 2
)

func (w *way) valid() bool { return w.word&wayValid != 0 }
func (w *way) dirty() bool { return w.word&wayDirty != 0 }

// Stats aggregates cache activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// HitRate returns hits/(hits+misses), or 0 for an idle cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewChecked builds a cache of sizeBytes capacity with the given line
// size and associativity, returning an error on invalid geometry. Size
// must be a multiple of lineBytes*assoc; the set count need not be a
// power of two.
func NewChecked(sizeBytes, lineBytes, assoc int) (*Cache, error) {
	if sizeBytes <= 0 || lineBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry size=%d line=%d assoc=%d", sizeBytes, lineBytes, assoc)
	}
	lines := sizeBytes / lineBytes
	if lines == 0 || lines%assoc != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible into %d-byte lines x %d ways", sizeBytes, lineBytes, assoc)
	}
	numSets := lines / assoc
	return &Cache{lineBytes: lineBytes, assoc: assoc, numSets: numSets, ways: make([]way, lines)}, nil
}

// New builds a cache like NewChecked but panics on invalid geometry.
func New(sizeBytes, lineBytes, assoc int) *Cache {
	c, err := NewChecked(sizeBytes, lineBytes, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.lineBytes * c.assoc * c.numSets }

// lineAddr converts a byte address to a line address.
func (c *Cache) lineAddr(addr uint64) uint64 { return addr / uint64(c.lineBytes) }

// set returns the ways of the set that holds line address la.
func (c *Cache) set(la uint64) []way {
	i := int(la%uint64(c.numSets)) * c.assoc
	return c.ways[i : i+c.assoc]
}

// Access looks up addr, allocating on miss (write-allocate) and evicting
// LRU. It reports whether the access hit, and on an eviction of a dirty
// line, the victim's byte address and that a writeback is needed.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victimAddr uint64, writeback bool) {
	la := c.lineAddr(addr)
	s := c.set(la)
	c.tick++
	use := c.tick << lruShift
	if write {
		use |= wayDirty
	}

	for i := range s {
		w := &s[i]
		if w.valid() && w.tag == la {
			w.word = use | w.word&wayDirty | wayValid
			c.stats.Hits++
			return true, 0, false
		}
	}
	c.stats.Misses++

	// Find a victim: the first invalid way, else the LRU way.
	vi := 0
	for i := 1; i < len(s); i++ {
		if s[i].word < s[vi].word {
			vi = i
		}
	}
	v := &s[vi]
	if v.valid() {
		c.stats.Evictions++
		if v.dirty() {
			c.stats.Writebacks++
			victimAddr = v.tag * uint64(c.lineBytes)
			writeback = true
		}
	}
	*v = way{tag: la, word: use | wayValid}
	return false, victimAddr, writeback
}

// Probe reports whether addr is cached, without updating LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	la := c.lineAddr(addr)
	s := c.set(la)
	for i := range s {
		if s[i].valid() && s[i].tag == la {
			return true
		}
	}
	return false
}

// Invalidate drops the line containing addr if present, reporting whether
// it was present and dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := c.lineAddr(addr)
	s := c.set(la)
	for i := range s {
		w := &s[i]
		if w.valid() && w.tag == la {
			present, dirty = true, w.dirty()
			*w = way{}
			return present, dirty
		}
	}
	return false, false
}

// InvalidateAll drops every line, returning how many were valid.
func (c *Cache) InvalidateAll() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].valid() {
			n++
		}
	}
	clear(c.ways)
	return n
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears statistics without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }
