package sim

import (
	"testing"
	"unsafe"
)

// Pruning folds only intervals strictly older than t-pruneWindow into the
// floor: an interval ending exactly at the window edge must survive.
func TestResourcePruneWindowEdge(t *testing.T) {
	var r Resource
	r.Acquire(0, 10) // [0,10)

	// Arrival with t-pruneWindow == 10: the old interval ends exactly at
	// the cutoff and must be kept.
	r.Acquire(pruneWindow+10, 1)
	if r.n != 2 || r.floor != 0 {
		t.Fatalf("interval at the window edge pruned: ivals=%d floor=%v", r.n, r.floor)
	}

	// One tick later the old interval is strictly past the window: it
	// folds into the floor (and the two recent intervals merge).
	r.Acquire(pruneWindow+11, 1)
	if r.n != 1 {
		t.Fatalf("ivals = %d after pruning, want 1", r.n)
	}
	if r.floor != 10 {
		t.Fatalf("floor = %v, want 10 (end of the pruned interval)", r.floor)
	}

	// A straggler before the floor is clamped to it, never placed in the
	// pruned past.
	if s, _ := r.Acquire(0, 5); s != 10 {
		t.Fatalf("straggler start = %v, want floor 10", s)
	}
}

// The interval list is capped at exactly maxIntervals; the overflow folds
// the oldest interval into the floor while preserving totals.
func TestResourceMaxIntervalsEdge(t *testing.T) {
	var r Resource
	// maxIntervals gap-separated 1ps reservations: all kept (the whole
	// span, 3*maxIntervals ps, is far below pruneWindow so only the count
	// cap can prune).
	for i := 0; i < maxIntervals; i++ {
		r.Acquire(Time(3*i), 1)
	}
	if r.n != maxIntervals || r.floor != 0 {
		t.Fatalf("at the cap: ivals=%d floor=%v", r.n, r.floor)
	}

	// One more overflows: the oldest interval folds into the floor and the
	// list stays at the cap.
	r.Acquire(Time(3*maxIntervals), 1)
	if r.n != maxIntervals {
		t.Fatalf("ivals = %d after overflow, want %d", r.n, maxIntervals)
	}
	if r.floor != 1 {
		t.Fatalf("floor = %v, want 1 (end of the evicted interval)", r.floor)
	}
	if r.BusyTotal() != Time(maxIntervals+1) {
		t.Fatalf("BusyTotal = %v, want %d (must survive pruning)", r.BusyTotal(), maxIntervals+1)
	}
	if r.FreeAt() != Time(3*maxIntervals+1) {
		t.Fatalf("FreeAt = %v", r.FreeAt())
	}

	// The floor now forbids reservations in the folded region even though
	// the gap before interval 0 looks free.
	if s, _ := r.Acquire(0, 1); s < 1 {
		t.Fatalf("reservation at %v inside the folded region", s)
	}
}

// A Resource header stays one 64-byte cache line on 64-bit hosts: the
// NoC, DRAM and CXL models keep resources in slices, and every Acquire
// reads the whole header.
func TestResourceHeaderIsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("64-bit layout only")
	}
	if s := unsafe.Sizeof(Resource{}); s != 64 {
		t.Fatalf("sizeof(Resource) = %d, want 64", s)
	}
}
