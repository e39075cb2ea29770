package sim

import (
	"strings"
	"testing"
	"unsafe"
)

// The clock drops exactly the intervals that end at or before it: one
// ending a tick after the clock stays live, and an arrival at the clock
// still sees it.
func TestResourceClockPruneEdge(t *testing.T) {
	var clock Time
	var r Resource
	r.SetClock(&clock)
	r.Acquire(0, 10)  // [0,10)
	r.Acquire(20, 10) // [20,30)

	clock = 9
	if s, _ := r.Acquire(9, 5); s != 10 || r.Live() != 2 {
		t.Fatalf("arrival at the clock started at %v with %d live, want 10 with 2 (merged)", s, r.Live())
	}

	clock = 15 // [0,15) ends at the clock: dropped
	r.Acquire(40, 1)
	if r.Live() != 2 || r.ivals[0] != (ival{20, 30}) {
		t.Fatalf("live after clock 15 = %+v, want [20,30) [40,41)", r.ivals)
	}
	if r.BusyTotal() != 26 {
		t.Fatalf("BusyTotal = %v, want 26 (must survive pruning)", r.BusyTotal())
	}
}

// An arrival before the clock breaks the precondition that makes
// pruning exact, so Acquire panics instead of answering.
func TestResourceArrivalBeforeClockPanics(t *testing.T) {
	clock := Time(100)
	var r Resource
	r.SetClock(&clock)
	r.Acquire(100, 10)
	for _, dur := range []Time{5, 0} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "before the clock") {
					t.Fatalf("Acquire(99, %v) before the clock: recovered %q, want a clock panic", dur, msg)
				}
			}()
			r.Acquire(99, dur)
		}()
	}
}

// A Resource header fits one 64-byte cache line on 64-bit hosts: the
// NoC, DRAM and CXL models keep resources in slices, and every Acquire
// reads the whole header.
func TestResourceHeaderIsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("64-bit layout only")
	}
	if s := unsafe.Sizeof(Resource{}); s > 64 {
		t.Fatalf("sizeof(Resource) = %d, want at most 64", s)
	}
}
