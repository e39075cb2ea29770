package workloads

import (
	"runtime"
	"testing"
)

// TestDigestsIndependentOfScheduling generates every workload with its
// processes emitted on one goroutine and on four, and requires equal
// traces: no process's emission may depend on another's or on the
// order the goroutines run them in.
func TestDigestsIndependentOfScheduling(t *testing.T) {
	sc := TinyScale() // 64 cores of 8 per process: 8 processes
	digests := func(procs int) map[string][2]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := map[string][2]string{}
		for _, name := range Names() {
			tr, err := All[name](64, 3, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tbl, acc := traceDigests(tr)
			out[name] = [2]string{tbl, acc}
		}
		return out
	}
	serial, parallel := digests(1), digests(4)
	for _, name := range Names() {
		if serial[name] != parallel[name] {
			t.Errorf("%s: digests %v at GOMAXPROCS 1, %v at 4", name, serial[name], parallel[name])
		}
	}
}

// TestTraceRetainsOnlyItsAccesses: a generated trace's per-core slices
// hold no capacity beyond their accesses, so the trace never holds more
// than cores × AccessesPerCore accesses of memory, including for the
// generators that leave cores short of their budget (hotspot at both
// sizes; lud, lavaMD, pathfinder, gnn, cc and tc at 30000).
func TestTraceRetainsOnlyItsAccesses(t *testing.T) {
	const cores = 64 // 4 processes
	for _, budget := range []int{4000, 30000} {
		sc := DefaultScale()
		sc.AccessesPerCore = budget
		for _, name := range Names() {
			tr, err := All[name](cores, 1, sc)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			held := 0
			for c, accs := range tr.PerCore {
				if cap(accs) != len(accs) {
					t.Errorf("%s at %d/core: core %d holds capacity %d for %d accesses", name, budget, c, cap(accs), len(accs))
				}
				held += cap(accs)
			}
			if held > cores*budget {
				t.Errorf("%s at %d/core: %d accesses of capacity, budget %d", name, budget, held, cores*budget)
			}
		}
	}
}

// TestBuilderBoundIsSoft: the public Builder's per-core bound is only a
// bound; a custom workload that emits far less does not allocate it.
func TestBuilderBoundIsSoft(t *testing.T) {
	const cores, bound = 4, 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bl := NewBuilder("loose", cores, bound)
	s := bl.Affine(1024, 8)
	for c := 0; c < cores; c++ {
		for i := 0; i < 10; i++ {
			bl.Read(c, s, i, 1)
		}
	}
	tr := bl.Build()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound*16 {
		t.Errorf("ten accesses on each of %d cores allocated %d bytes; one core's bound is %d", cores, got, bound*16)
	}
	for c, accs := range tr.PerCore {
		if len(accs) != 10 || cap(accs) >= bound {
			t.Errorf("core %d: %d accesses in capacity %d", c, len(accs), cap(accs))
		}
	}
}
