package scheduler

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"ndpext/internal/bench"
	"ndpext/internal/runspec"
	"ndpext/internal/server/result"
	"ndpext/internal/system"
)

// TestDeterminismAcrossExecutionPaths is the concurrency-safety oracle
// for the whole serving stack: one job spec simulated four ways —
// serially via system.RunContext, through the bench worker pool, and as
// concurrent submissions on two independent scheduler instances — must
// produce byte-identical canonical result documents under the same
// CanonicalBytes-derived cache key. Run under -race this also proves the
// concurrent paths share no unsynchronized state that could perturb a
// result. A probe/telemetry refactor that made results depend on
// scheduling would show up here as a document mismatch.
func TestDeterminismAcrossExecutionPaths(t *testing.T) {
	spec := JobSpec{Workload: "pr", Seed: 7, Accesses: 1000, EpochCycles: 50_000}.Normalize()
	cfg, err := spec.Build(0, 0) // no watchdogs: nothing wall-clock-dependent
	if err != nil {
		t.Fatal(err)
	}
	key := spec.Key(cfg, "")

	// Path 1: plain serial system.RunContext on the trace the shared
	// runspec cache generates.
	tr, err := runspec.NewTraces().Get(spec, cfg.NumUnits())
	if err != nil {
		t.Fatal(err)
	}
	resSerial, err := system.RunContext(context.Background(), cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	docSerial, err := result.Encode(resSerial)
	if err != nil {
		t.Fatal(err)
	}

	// Path 2: the bench worker pool, with a second unrelated cell in the
	// batch so the target cell genuinely runs next to concurrent work.
	opt := bench.Options{AccessesPerCore: spec.Accesses, Seed: spec.Seed}
	results, err := bench.RunCells([]bench.Cell{
		{Config: cfg, Workload: spec.Workload},
		{Config: cfg, Workload: "mv"},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	docBench, err := result.Encode(results[0])
	if err != nil {
		t.Fatal(err)
	}

	// Paths 3 and 4: two independent scheduler instances each simulate
	// the spec concurrently (no shared store between them, so both really
	// run), with an extra different job on the first to keep its worker
	// pool busy with unrelated work.
	schedDocs := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := range schedDocs {
		s := newTestScheduler(t, Options{Workers: 4, QueueDepth: 8})
		defer s.Drain(context.Background())
		if i == 0 {
			extra, err := s.Submit(JobSpec{Workload: "hotspot", Seed: 3, Accesses: 1000})
			if err != nil {
				t.Fatal(err)
			}
			defer waitJob(t, extra)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if j.Key != key {
			t.Fatalf("scheduler %d keyed the job %x, test computed %x", i, j.Key, key)
		}
		wg.Add(1)
		go func(i int, j *Job) {
			defer wg.Done()
			waitJob(t, j)
			st := j.Status()
			if st.State != StateDone {
				t.Errorf("scheduler %d: job state %s (err %q)", i, st.State, st.Error)
				return
			}
			schedDocs[i] = st.Result
		}(i, j)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, doc := range [][]byte{docBench, schedDocs[0], schedDocs[1]} {
		path := []string{"bench pool", "scheduler A", "scheduler B"}[i]
		if !bytes.Equal(doc, docSerial) {
			t.Errorf("%s produced a different result document than the serial run\nserial: %s\n%s: %s",
				path, docSerial, path, doc)
		}
	}
}
