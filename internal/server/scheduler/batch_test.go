package scheduler

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpext/internal/server/store"
)

func waitBatch(t *testing.T, b *Batch) {
	t.Helper()
	select {
	case <-b.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("batch %s stuck: %+v", b.ID, b.Status())
	}
}

// TestBatchDAGDedup is the acceptance-criteria matrix: a 4-design ×
// 3-workload batch sharing cells with prior single submissions runs
// only the uncached unique cells, and every cell's document is
// byte-identical to the equivalent single submission.
func TestBatchDAGDedup(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 4, QueueDepth: 32})
	defer s.Drain(context.Background())

	base := JobSpec{Seed: 1, Accesses: 1000}
	designs := []string{"NDPExt", "Nexus", "Whirlpool", "Jigsaw"}
	wls := []string{"pr", "bfs", "cc"}

	// Pre-warm three of the twelve cells via single submissions.
	warm := map[[2]string][]byte{}
	for _, cell := range [][2]string{{"NDPExt", "pr"}, {"Nexus", "bfs"}, {"Jigsaw", "cc"}} {
		spec := base
		spec.Design, spec.Workload = cell[0], cell[1]
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		warm[cell] = j.Status().Result
	}
	if got := s.SimsRun(); got != 3 {
		t.Fatalf("pre-warm ran %d sims, want 3", got)
	}

	b, err := s.SubmitBatch(BatchSpec{Designs: designs, Workloads: wls, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Cells) != 12 {
		t.Fatalf("batch expanded to %d cells, want 12", len(b.Cells))
	}
	waitBatch(t, b)
	if st := b.State(); st != StateDone {
		t.Fatalf("batch state = %s, want done: %+v", st, b.Status())
	}
	// Only the 9 cold cells simulate; the 3 warm ones are store hits.
	if got := s.SimsRun(); got != 12 {
		t.Errorf("after batch SimsRun = %d, want 12 (9 fresh + 3 pre-warmed)", got)
	}
	hits := 0
	for _, c := range b.Cells {
		st := c.Status()
		if st.State != StateDone {
			t.Errorf("cell %s/%s: state %s (err %q)", c.Design, c.Workload, st.State, st.Error)
		}
		if st.CacheHit {
			hits++
			want := warm[[2]string{c.Design, c.Workload}]
			if want == nil {
				t.Errorf("cell %s/%s claims a cache hit but was never pre-warmed", c.Design, c.Workload)
			} else if !bytes.Equal(c.Result(), want) {
				t.Errorf("cell %s/%s: batch document differs from the single-submission bytes", c.Design, c.Workload)
			}
		}
	}
	if hits != 3 {
		t.Errorf("%d cells were cache hits, want the 3 pre-warmed ones", hits)
	}

	// Cold cells must equal fresh single submissions byte-for-byte too
	// (they now hit the store, proving shared addressing).
	for _, c := range b.Cells {
		spec := base
		spec.Design, spec.Workload = c.Design, c.Workload
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if !j.CacheHit() {
			t.Errorf("re-submitting cell %s/%s missed the store", c.Design, c.Workload)
		}
		if !bytes.Equal(j.Result(), c.Result()) {
			t.Errorf("cell %s/%s: single-submit document differs from the batch cell", c.Design, c.Workload)
		}
	}
	if got := s.SimsRun(); got != 12 {
		t.Errorf("re-submissions ran sims (SimsRun = %d, want still 12)", got)
	}
}

// TestBatchSharedCellsRunOnce submits two batches whose matrices
// overlap while holding all workers, proving in-flight cells are shared
// (piggybacked) across batches rather than re-queued.
func TestBatchSharedCellsRunOnce(t *testing.T) {
	started := make(chan *Job, 8)
	release := make(chan struct{})
	s := New(newTestStore(t, store.Options{}), nil, Options{Workers: 1, QueueDepth: 16})
	s.testJobStarted = func(j *Job) {
		started <- j
		<-release
	}
	s.Start()

	b1, err := s.SubmitBatch(BatchSpec{
		Designs:   []string{"NDPExt", "Nexus"},
		Workloads: []string{"pr", "bfs"},
		Base:      JobSpec{Accesses: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no cell ever started")
	}

	// Overlaps b1 in two of four cells; those must piggyback, not queue.
	b2, err := s.SubmitBatch(BatchSpec{
		Designs:   []string{"NDPExt", "Whirlpool"},
		Workloads: []string{"pr", "bfs"},
		Base:      JobSpec{Accesses: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	deduped := 0
	for _, c := range b2.Cells {
		if c.Status().Deduped {
			deduped++
		}
	}
	if deduped != 2 {
		t.Errorf("%d of b2's cells piggybacked, want the 2 overlapping ones", deduped)
	}

	close(release)
	waitBatch(t, b1)
	waitBatch(t, b2)
	// 4 unique cells in b1 + 2 new in b2.
	if got := s.SimsRun(); got != 6 {
		t.Errorf("SimsRun = %d, want 6 unique cells", got)
	}
	// Shared cells carry the same result bytes in both batches.
	cellDoc := func(b *Batch, d, w string) []byte {
		for _, c := range b.Cells {
			if c.Design == d && c.Workload == w {
				return c.Result()
			}
		}
		t.Fatalf("batch %s has no cell %s/%s", b.ID, d, w)
		return nil
	}
	for _, w := range []string{"pr", "bfs"} {
		if !bytes.Equal(cellDoc(b1, "NDPExt", w), cellDoc(b2, "NDPExt", w)) {
			t.Errorf("shared cell NDPExt/%s differs between batches", w)
		}
	}
	s.Drain(context.Background())
}

// TestBatchValidation rejects malformed matrices up front.
func TestBatchValidation(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1, QueueDepth: 4})
	defer s.Drain(context.Background())

	for name, spec := range map[string]BatchSpec{
		"no designs":     {Workloads: []string{"pr"}},
		"no inner axis":  {Designs: []string{"NDPExt"}},
		"both axes":      {Designs: []string{"NDPExt"}, Workloads: []string{"pr"}, Traces: []string{"t"}},
		"dup design":     {Designs: []string{"NDPExt", "NDPExt"}, Workloads: []string{"pr"}},
		"dup workload":   {Designs: []string{"NDPExt"}, Workloads: []string{"pr", "pr"}},
		"base sets axis": {Designs: []string{"NDPExt"}, Workloads: []string{"pr"}, Base: JobSpec{Workload: "bfs"}},
		"bad workload":   {Designs: []string{"NDPExt"}, Workloads: []string{"nope"}},
		"bad design":     {Designs: []string{"NopeDesign"}, Workloads: []string{"pr"}},
	} {
		if _, err := s.SubmitBatch(spec); err == nil {
			t.Errorf("%s: SubmitBatch accepted a malformed matrix", name)
		}
	}
	if got := s.SimsRun(); got != 0 {
		t.Errorf("rejected batches ran %d sims", got)
	}
}

// TestBatchQueueFullAtomic: a batch needing more slots than the queue
// has free is rejected whole — no cells admitted, no partial matrix.
func TestBatchQueueFullAtomic(t *testing.T) {
	started := make(chan *Job, 8)
	release := make(chan struct{})
	s := New(newTestStore(t, store.Options{}), nil, Options{Workers: 1, QueueDepth: 2})
	s.testJobStarted = func(j *Job) {
		started <- j
		<-release
	}
	s.Start()

	// Occupy the worker and one queue slot: one slot free.
	if _, err := s.Submit(fastSpec(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started")
	}
	if _, err := s.Submit(fastSpec(2)); err != nil {
		t.Fatal(err)
	}

	// Needs 2 fresh slots with 1 free: rejected atomically.
	_, err := s.SubmitBatch(BatchSpec{
		Designs:   []string{"NDPExt", "Nexus"},
		Workloads: []string{"bfs"},
		Base:      JobSpec{Accesses: 1000},
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("oversized batch: err = %v, want ErrQueueFull", err)
	}
	if !strings.Contains(err.Error(), "2 slots") {
		t.Errorf("error %q does not report the slot shortfall", err)
	}
	if got := s.Rejected(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	if got := len(s.Batches()); got != 0 {
		t.Errorf("rejected batch was registered (%d batches)", got)
	}

	// A batch overlapping the held jobs needs only 1 slot and fits.
	b, err := s.SubmitBatch(BatchSpec{
		Designs:   []string{"NDPExt"},
		Workloads: []string{"pr", "bfs"},
		Base:      JobSpec{Seed: 1, Accesses: 1000},
	})
	if err != nil {
		t.Fatalf("batch that piggybacks queued work: %v", err)
	}
	close(release)
	waitBatch(t, b)
	s.Drain(context.Background())
}

// TestBatchResultDocDeterministic renders the same matrix on two fresh
// schedulers and checks the canonical documents match byte-for-byte —
// no server IDs, timestamps, or map ordering can leak in.
func TestBatchResultDocDeterministic(t *testing.T) {
	render := func() []byte {
		s := newTestScheduler(t, Options{Workers: 4, QueueDepth: 32})
		defer s.Drain(context.Background())
		b, err := s.SubmitBatch(BatchSpec{
			Designs:   []string{"NDPExt", "Host"},
			Workloads: []string{"pr", "bfs"},
			Base:      JobSpec{Seed: 3, Accesses: 1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ResultDoc(); !errors.Is(err, ErrBatchIncomplete) {
			// The batch may legitimately already be terminal on a fast
			// machine, so only a wrong error kind fails.
			if err != nil {
				t.Fatalf("in-flight ResultDoc: err = %v, want ErrBatchIncomplete", err)
			}
		}
		waitBatch(t, b)
		doc, err := b.ResultDoc()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("matrix documents differ across fresh servers:\n%s\n---\n%s", a, b)
	}
}

// TestBatchSubscribeMultiplex checks the merged stream tags every event
// with its cell position and terminates once all cells do.
func TestBatchSubscribeMultiplex(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2, QueueDepth: 16})
	defer s.Drain(context.Background())

	b, err := s.SubmitBatch(BatchSpec{
		Designs:   []string{"NDPExt", "Nexus"},
		Workloads: []string{"pr"},
		Base:      JobSpec{Accesses: 5000, EpochCycles: 50000},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := b.Subscribe()
	defer cancel()

	terminal := map[int]bool{}
	sawEpoch := false
	deadline := time.After(60 * time.Second)
	for len(terminal) < len(b.Cells) {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream closed with %d of %d cells terminal", len(terminal), len(b.Cells))
			}
			if ev.Cell < 0 || ev.Cell >= len(b.Cells) {
				t.Fatalf("event cell index %d out of range", ev.Cell)
			}
			if c := b.Cells[ev.Cell]; c.Design != ev.Design || c.Workload != ev.Workload {
				t.Fatalf("event position tag %s/%s does not match cell %d", ev.Design, ev.Workload, ev.Cell)
			}
			switch ev.Event.Type {
			case "epoch":
				sawEpoch = true
			case string(StateDone), string(StateFailed), string(StateTruncated):
				terminal[ev.Cell] = true
			}
		case <-deadline:
			t.Fatalf("timed out with %d of %d cells terminal", len(terminal), len(b.Cells))
		}
	}
	if !sawEpoch {
		t.Error("no epoch events crossed the multiplexed stream")
	}
	// After all cells finish, the stream drains and closes.
	for range ch {
	}
}

// TestBatchConcurrentWithSingles hammers overlapping batch and single
// submissions concurrently; with -race this doubles as the DAG's
// synchronization test. Every unique cell still simulates exactly once.
func TestBatchConcurrentWithSingles(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 4, QueueDepth: 64})
	defer s.Drain(context.Background())

	var wg sync.WaitGroup
	var batches [4]*Batch
	errs := make(chan error, 12)
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := s.SubmitBatch(BatchSpec{
				Designs:   []string{"NDPExt", "Nexus"},
				Workloads: []string{"pr", "bfs"},
				Base:      JobSpec{Accesses: 1000},
			})
			if err != nil {
				errs <- err
				return
			}
			batches[i] = b
		}(i)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := JobSpec{Design: "NDPExt", Workload: "pr", Accesses: 1000}
			if i%2 == 1 {
				spec.Design = "Nexus"
			}
			j, err := s.Submit(spec)
			if err != nil {
				errs <- err
				return
			}
			waitJob(t, j)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, b := range batches {
		waitBatch(t, b)
		if st := b.State(); st != StateDone {
			t.Errorf("batch %s state = %s: %+v", b.ID, st, b.Status())
		}
	}
	if got := s.SimsRun(); got != 4 {
		t.Errorf("SimsRun = %d, want 4 unique cells across everything", got)
	}
}
