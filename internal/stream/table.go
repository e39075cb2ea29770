package stream

import (
	"fmt"
	"sort"
)

// Table is the software-side registry of configured streams, kept in host
// memory alongside the stream remap table (paper §IV-B). Address ranges
// must not overlap: NDPExt associates one address with at most one stream
// (§IV-C), otherwise synonyms would break coherence.
type Table struct {
	byID map[ID]*Stream
	// ranges is kept sorted by Base for O(log n) address lookup.
	ranges []*Stream
}

// NewTable returns an empty stream table.
func NewTable() *Table {
	return &Table{byID: make(map[ID]*Stream)}
}

// Add registers a validated stream. It rejects duplicate IDs, overlapping
// ranges, and tables at the 512-stream capacity.
func (t *Table) Add(s *Stream) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, dup := t.byID[s.SID]; dup {
		return fmt.Errorf("stream: duplicate sid %d", s.SID)
	}
	if len(t.byID) >= MaxStreams-1 {
		return fmt.Errorf("stream: table full (%d streams)", MaxStreams-1)
	}
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].Base >= s.Base })
	if i > 0 && t.ranges[i-1].Base+t.ranges[i-1].Size > s.Base {
		return fmt.Errorf("stream %d overlaps stream %d", s.SID, t.ranges[i-1].SID)
	}
	if i < len(t.ranges) && s.Base+s.Size > t.ranges[i].Base {
		return fmt.Errorf("stream %d overlaps stream %d", s.SID, t.ranges[i].SID)
	}
	t.byID[s.SID] = s
	t.ranges = append(t.ranges, nil)
	copy(t.ranges[i+1:], t.ranges[i:])
	t.ranges[i] = s
	return nil
}

// Clone returns a deep copy of the table. Streams are copied by value,
// so state the hardware keeps on a stream (the read-only bit) can change
// on the copy without touching t.
func (t *Table) Clone() *Table {
	c := &Table{byID: make(map[ID]*Stream, len(t.byID)), ranges: make([]*Stream, len(t.ranges))}
	streams := make([]Stream, len(t.ranges))
	for i, s := range t.ranges {
		streams[i] = *s
		c.ranges[i] = &streams[i]
		c.byID[s.SID] = &streams[i]
	}
	return c
}

// Get returns the stream with the given ID, or nil.
func (t *Table) Get(sid ID) *Stream { return t.byID[sid] }

// FindByAddr returns the stream containing addr, or nil. This models the
// full remap-table walk the host performs on an SLB miss.
//
// The binary search is hand-inlined (same invariant as sort.Search over
// Base > addr): this sits on the simulator's per-access path, and the
// closure-based search pays an indirect call per probe.
func (t *Table) FindByAddr(addr uint64) *Stream {
	r := t.ranges
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].Base > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	if s := r[lo-1]; s.Contains(addr) {
		return s
	}
	return nil
}

// Len reports the number of registered streams.
func (t *Table) Len() int { return len(t.byID) }

// All returns the streams ordered by ID (a fresh slice).
func (t *Table) All() []*Stream {
	out := make([]*Stream, 0, len(t.byID))
	for _, s := range t.ranges {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}
