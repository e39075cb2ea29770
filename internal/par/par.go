// Package par runs independent, indexed pieces of work on the host's
// cores. The set-up stages use it: workload generation builds and emits
// each process on its own, and the trace writer encodes each chunk on
// its own.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(w, i) for every i in [0, n) on at most GOMAXPROCS
// goroutines, and returns when every call has returned. Each goroutine
// owns one W, zero-valued at its start, and passes it to every call it
// makes, so fn can reuse buffers across calls. Which goroutine runs
// which i, and in what order, is not fixed: the calls must not depend
// on one another. A panic in fn is raised again in the caller once
// every goroutine has stopped.
func Each[W any](n int, fn func(w *W, i int)) {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		once    sync.Once
		failure any
	)
	for g := min(n, runtime.GOMAXPROCS(0)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					once.Do(func() { failure = v })
				}
			}()
			var w W
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(&w, i)
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}
