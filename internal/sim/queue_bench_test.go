package sim

import (
	"container/heap"
	"testing"
)

// boxedQueue is the original container/heap-based EventQueue, kept here
// as the benchmark reference: every Push boxes an Event into an `any`
// (one heap allocation) and every comparison goes through interface
// method dispatch. The live EventQueue must beat it by >= 1.5x with zero
// steady-state allocations; BENCH_core.json records the measured ratio.
type boxedQueue struct {
	h      boxedHeap
	nextSq uint64
}

func (q *boxedQueue) Push(t Time, id int) {
	q.nextSq++
	heap.Push(&q.h, Event{When: t, ID: id, seq: q.nextSq})
}

func (q *boxedQueue) Pop() Event { return heap.Pop(&q.h).(Event) }

func (q *boxedQueue) Len() int { return len(q.h) }

type boxedHeap []Event

func (h boxedHeap) Len() int { return len(h) }

func (h boxedHeap) Less(i, j int) bool {
	if h[i].When != h[j].When {
		return h[i].When < h[j].When
	}
	return h[i].seq < h[j].seq
}

func (h boxedHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *boxedHeap) Push(x any) { *h = append(*h, x.(Event)) }

func (h *boxedHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// queueSizes are the resident event counts benchmarked: the simulator
// keeps one event per core in flight, so 8 (unit tests), 128 (the
// default machine), and 1024 (a scaled-up machine) bracket reality.
var queueSizes = []int{8, 128, 1024}

// nextWhen advances a synthetic event time the way the simulator does:
// mostly small forward steps, occasionally a long extended-memory stall.
func nextWhen(t Time, i int) Time {
	step := Time(500 + (i*7919)%2000)
	if i%37 == 0 {
		step += 200_000 // CXL round trip
	}
	return t + step
}

// BenchmarkQueueSteadyState measures the simulator's event-loop pattern
// on the live EventQueue: pop the earliest event, push its successor.
// This is the tentpole microbenchmark; steady state must not allocate.
func BenchmarkQueueSteadyState(b *testing.B) {
	for _, size := range queueSizes {
		b.Run(benchName(size), func(b *testing.B) {
			var q EventQueue
			t := Time(0)
			for i := 0; i < size; i++ {
				t = nextWhen(t, i)
				q.Push(t, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.Pop()
				q.Push(nextWhen(ev.When, i), ev.ID)
			}
		})
	}
}

// BenchmarkBoxedQueueSteadyState is the identical workload on the
// container/heap reference implementation.
func BenchmarkBoxedQueueSteadyState(b *testing.B) {
	for _, size := range queueSizes {
		b.Run(benchName(size), func(b *testing.B) {
			var q boxedQueue
			t := Time(0)
			for i := 0; i < size; i++ {
				t = nextWhen(t, i)
				q.Push(t, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.Pop()
				q.Push(nextWhen(ev.When, i), ev.ID)
			}
		})
	}
}

// BenchmarkQueueFillDrain measures the ramp pattern: fill from empty,
// then drain to empty (run startup and teardown).
func BenchmarkQueueFillDrain(b *testing.B) {
	const size = 128
	var q EventQueue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := Time(0)
		for j := 0; j < size; j++ {
			t = nextWhen(t, j)
			q.Push(t, j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

func benchName(size int) string {
	switch size {
	case 8:
		return "events=8"
	case 128:
		return "events=128"
	default:
		return "events=1024"
	}
}
