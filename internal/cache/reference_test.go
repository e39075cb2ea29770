package cache

import "testing"

// refCache is the layout the flat way array replaced: a []refSet, each
// set holding its own []refWay with separate valid, dirty and LRU
// fields. It is kept as the reference the flat layout must match.
type refCache struct {
	lineBytes int
	numSets   int
	sets      []refSet
	tick      uint64
	stats     Stats
}

type refSet struct {
	ways []refWay
}

type refWay struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

func newRefCache(sizeBytes, lineBytes, assoc int) *refCache {
	numSets := sizeBytes / lineBytes / assoc
	c := &refCache{lineBytes: lineBytes, numSets: numSets, sets: make([]refSet, numSets)}
	for i := range c.sets {
		c.sets[i].ways = make([]refWay, assoc)
	}
	return c
}

func (c *refCache) set(addr uint64) (*refSet, uint64) {
	la := addr / uint64(c.lineBytes)
	return &c.sets[la%uint64(c.numSets)], la
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, victimAddr uint64, writeback bool) {
	s, la := c.set(addr)
	c.tick++
	for i := range s.ways {
		w := &s.ways[i]
		if w.valid && w.tag == la {
			w.lru = c.tick
			if write {
				w.dirty = true
			}
			c.stats.Hits++
			return true, 0, false
		}
	}
	c.stats.Misses++
	vi := 0
	for i := range s.ways {
		if !s.ways[i].valid {
			vi = i
			break
		}
		if s.ways[i].lru < s.ways[vi].lru {
			vi = i
		}
	}
	v := &s.ways[vi]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			victimAddr = v.tag * uint64(c.lineBytes)
			writeback = true
		}
	}
	*v = refWay{tag: la, valid: true, dirty: write, lru: c.tick}
	return false, victimAddr, writeback
}

func (c *refCache) Probe(addr uint64) bool {
	s, la := c.set(addr)
	for _, w := range s.ways {
		if w.valid && w.tag == la {
			return true
		}
	}
	return false
}

func (c *refCache) Invalidate(addr uint64) (present, dirty bool) {
	s, la := c.set(addr)
	for i := range s.ways {
		w := &s.ways[i]
		if w.valid && w.tag == la {
			present, dirty = true, w.dirty
			*w = refWay{}
			return present, dirty
		}
	}
	return false, false
}

func (c *refCache) InvalidateAll() int {
	n := 0
	for i := range c.sets {
		for j := range c.sets[i].ways {
			if c.sets[i].ways[j].valid {
				n++
			}
			c.sets[i].ways[j] = refWay{}
		}
	}
	return n
}

// FuzzCacheMatchesReference runs Access, Probe, Invalidate and
// InvalidateAll on the flat cache and the []set reference and requires
// the same hits, victims, writebacks and Stats after every operation.
// Geometries range over 1 to 8 sets of 1 to 8 ways, and addresses over
// a few times the capacity, so lines conflict and get evicted.
func FuzzCacheMatchesReference(f *testing.F) {
	// An op is 2 bytes: kind (kind%16: 0-11 Access, writing when odd;
	// 12-13 Probe; 14 Invalidate; 15 InvalidateAll) and the line index.
	var ops []byte
	for i := 0; i < 96; i++ {
		ops = append(ops, byte(i*7%16), byte(i*13))
	}
	f.Add(uint8(4), uint8(2), uint8(0), ops)
	f.Add(uint8(1), uint8(8), uint8(1), ops)
	f.Add(uint8(8), uint8(1), uint8(2), ops)
	f.Add(uint8(3), uint8(3), uint8(0), []byte{1, 0, 1, 3, 1, 6, 1, 9, 0, 0, 14, 3, 1, 12, 15, 0, 0, 0})
	f.Fuzz(func(t *testing.T, sets, ways, lineSel uint8, ops []byte) {
		numSets, assoc := 1+int(sets)%8, 1+int(ways)%8
		lineBytes := 16 << (lineSel % 3)
		size := numSets * assoc * lineBytes
		got, want := New(size, lineBytes, assoc), newRefCache(size, lineBytes, assoc)
		span := uint64(4 * numSets * assoc)
		for i := 0; i+1 < len(ops); i += 2 {
			kind := ops[i] % 16
			// The line index, plus an offset inside the line.
			addr := uint64(ops[i+1])%span*uint64(lineBytes) + uint64(ops[i+1])%uint64(lineBytes)
			switch {
			case kind < 12:
				gh, gv, gw := got.Access(addr, kind%2 == 1)
				wh, wv, ww := want.Access(addr, kind%2 == 1)
				if gh != wh || gv != wv || gw != ww {
					t.Fatalf("op %d: Access(%#x) = %v %#x %v, want %v %#x %v", i/2, addr, gh, gv, gw, wh, wv, ww)
				}
			case kind < 14:
				if g, w := got.Probe(addr), want.Probe(addr); g != w {
					t.Fatalf("op %d: Probe(%#x) = %v, want %v", i/2, addr, g, w)
				}
			case kind == 14:
				gp, gd := got.Invalidate(addr)
				wp, wd := want.Invalidate(addr)
				if gp != wp || gd != wd {
					t.Fatalf("op %d: Invalidate(%#x) = %v %v, want %v %v", i/2, addr, gp, gd, wp, wd)
				}
			default:
				if g, w := got.InvalidateAll(), want.InvalidateAll(); g != w {
					t.Fatalf("op %d: InvalidateAll = %d, want %d", i/2, g, w)
				}
			}
			if g, w := got.Stats(), want.stats; g != w {
				t.Fatalf("op %d: Stats = %+v, want %+v", i/2, g, w)
			}
		}
	})
}
