package streamcache

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"ndpext/internal/stream"
)

// Allocation is one stream's row of the stream remap table (Fig. 3b):
// how many DRAM rows each NDP unit contributes to caching the stream,
// where they start, and which replication group each unit belongs to.
// Each replication group independently caches one full copy of (its
// share of) the stream.
type Allocation struct {
	Shares  []uint32 // rows per unit (RShares)
	RowBase []uint32 // first allocated row per unit (RRowBase)
	Groups  []uint8  // replication group per unit (RGroups)
}

// NewAllocation returns an empty allocation over n units (all units in
// group 0, no space).
func NewAllocation(n int) Allocation {
	return Allocation{
		Shares:  make([]uint32, n),
		RowBase: make([]uint32, n),
		Groups:  make([]uint8, n),
	}
}

// Clone returns a deep copy.
func (a Allocation) Clone() Allocation {
	c := NewAllocation(len(a.Shares))
	copy(c.Shares, a.Shares)
	copy(c.RowBase, a.RowBase)
	copy(c.Groups, a.Groups)
	return c
}

// Equal reports whether a and b are the same remap-table row.
func (a Allocation) Equal(b Allocation) bool {
	return slices.Equal(a.Shares, b.Shares) && slices.Equal(a.RowBase, b.RowBase) &&
		slices.Equal(a.Groups, b.Groups)
}

// Validate checks structural consistency for n units.
func (a Allocation) Validate(n int) error {
	if len(a.Shares) != n || len(a.RowBase) != n || len(a.Groups) != n {
		return fmt.Errorf("streamcache: allocation vectors sized %d/%d/%d, want %d",
			len(a.Shares), len(a.RowBase), len(a.Groups), n)
	}
	for u, s := range a.Shares {
		if s >= 1<<RSharesBits {
			return fmt.Errorf("streamcache: unit %d share %d exceeds %d bits", u, s, RSharesBits)
		}
		if a.RowBase[u] >= 1<<RRowBaseBits {
			return fmt.Errorf("streamcache: unit %d row base %d exceeds %d bits", u, a.RowBase[u], RRowBaseBits)
		}
		if a.Groups[u] >= 1<<RGroupsBits {
			return fmt.Errorf("streamcache: unit %d group %d exceeds %d bits", u, a.Groups[u], RGroupsBits)
		}
	}
	return nil
}

// TotalRows sums the allocated rows across all units.
func (a Allocation) TotalRows() uint64 {
	var t uint64
	for _, s := range a.Shares {
		t += uint64(s)
	}
	return t
}

// GroupRows sums the allocated rows within group g.
func (a Allocation) GroupRows(g uint8) uint64 {
	var t uint64
	for u, s := range a.Shares {
		if a.Groups[u] == g {
			t += uint64(s)
		}
	}
	return t
}

// GroupIDs returns the sorted set of groups that own at least one row.
func (a Allocation) GroupIDs() []uint8 {
	seen := map[uint8]bool{}
	for u, s := range a.Shares {
		if s > 0 {
			seen[a.Groups[u]] = true
		}
	}
	out := make([]uint8, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// spot is one consistent-hashing position: the r-th allocated row of the
// stream on a unit. Identifying spots by ordinal (rather than absolute
// row number) keeps an element's spot stable when only the RRowBase
// moves, which is what lets reconfiguration keep most cached data in
// place (§V-D).
type spot struct {
	hash uint64
	unit int32
	ord  uint32 // row ordinal within this unit's share
}

// ring is the consistent-hash ring for one (stream, group).
type ring struct {
	spots []spot // sorted by hash
	// guide indexes the spots by the top bits of their hash, about one
	// bucket per spot: guide[k] is the index of the first spot whose
	// hash>>shift is k or more, and guide[len(guide)-1] is len(spots).
	guide []uint32
	shift uint
}

// hash64 mixes a key with a seed (SplitMix64 finalizer).
func hash64(key, seed uint64) uint64 {
	x := key ^ (seed * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// buildRing constructs the ring for stream sid restricted to units of
// group g under allocation a. A nil ring means the group has no space.
//
// The spot hash deliberately ignores the group ID: group numbering is an
// artifact of the optimizer's output ordering and may shift between
// epochs even when the physical grouping is unchanged, and any change to
// the spot hashes remaps (and so invalidates) every cached item. Seeding
// by stream only keeps (unit, ordinal) spots stable across relabelings.
func buildRing(sid stream.ID, a Allocation, g uint8) *ring {
	var spots []spot
	seed := uint64(sid) << 8
	for u, s := range a.Shares {
		if a.Groups[u] != g {
			continue
		}
		for r := uint32(0); r < s; r++ {
			key := uint64(u)<<32 | uint64(r)
			spots = append(spots, spot{hash: hash64(key, seed), unit: int32(u), ord: r})
		}
	}
	if len(spots) == 0 {
		return nil
	}
	return newRing(spots)
}

// newRing sorts spots into ring order and builds their guide table.
func newRing(spots []spot) *ring {
	sort.Slice(spots, func(i, j int) bool {
		if spots[i].hash != spots[j].hash {
			return spots[i].hash < spots[j].hash
		}
		if spots[i].unit != spots[j].unit {
			return spots[i].unit < spots[j].unit
		}
		return spots[i].ord < spots[j].ord
	})
	b := bits.Len(uint(len(spots)))
	r := &ring{spots: spots, guide: make([]uint32, 1<<b+1), shift: uint(64 - b)}
	for _, sp := range spots {
		r.guide[sp.hash>>r.shift+1]++
	}
	for k := 1; k < len(r.guide); k++ {
		r.guide[k] += r.guide[k-1]
	}
	return r
}

// locate maps item id (a block ID for affine streams, an element ID for
// indirect ones) to its home spot: the first spot clockwise of the item's
// hash. Spots before the hash's guide bucket hash lower and spots after
// it higher, so the bisection runs within the bucket: about one spot,
// where bisecting the whole ring takes a dozen dependent loads on every
// stream access.
func (r *ring) locate(sid stream.ID, id uint64) spot {
	h := hash64(id, uint64(sid)*0x6c62272e07bb0142+1)
	k := h >> r.shift
	lo, hi := int(r.guide[k]), int(r.guide[k+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.spots[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.spots) {
		lo = 0
	}
	return r.spots[lo]
}

// size reports the number of spots.
func (r *ring) size() int { return len(r.spots) }
