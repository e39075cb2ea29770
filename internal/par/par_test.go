package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachCallsEveryIndexOnce runs more indices than goroutines and
// checks every index ran exactly once, each goroutine with its own W.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 1000
	var calls [n]atomic.Int32
	Each(n, func(w *int, i int) {
		*w++ // unsynchronized: the race detector fails a shared W
		calls[i].Add(1)
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	Each(0, func(*int, int) { t.Fatal("called with n = 0") })
}

// TestEachPanicsInCaller: a panic in fn reaches the caller after every
// goroutine has stopped.
func TestEachPanicsInCaller(t *testing.T) {
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
	}()
	Each(8, func(_ *struct{}, i int) {
		if i == 5 {
			panic("boom")
		}
	})
	t.Fatal("Each returned after a panic")
}
