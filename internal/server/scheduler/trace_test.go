package scheduler

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"ndpext/internal/server/store"
	"ndpext/internal/system"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

// saveWorkloadTrace generates a workload at the scheduler's machine
// size and writes it as a native trace file.
func saveWorkloadTrace(t *testing.T, path, workload string, seed uint64, accesses int) *workloads.Trace {
	t.Helper()
	gen, err := workloads.Get(workload)
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = accesses
	tr, err := gen(system.DefaultConfig(system.NDPExt).NumUnits(), seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func newTraceScheduler(t *testing.T, dir string, opt Options) *Scheduler {
	t.Helper()
	s := New(newTestStore(t, store.Options{}), store.NewTraceRegistry(dir), opt)
	s.Start()
	return s
}

// TestTraceJob is the serving half of the trace subsystem's keystone:
// a trace-backed job must produce the byte-identical canonical document
// of the equivalent generated-workload job, and identical trace bytes
// must hit the result store.
func TestTraceJob(t *testing.T) {
	dir := t.TempDir()
	saveWorkloadTrace(t, filepath.Join(dir, "pr.ndptrc"), "pr", 1, 1000)

	s := newTraceScheduler(t, dir, Options{Workers: 2})
	defer s.Drain(context.Background())

	jt, err := s.Submit(JobSpec{Trace: "pr.ndptrc"})
	if err != nil {
		t.Fatal(err)
	}
	jw, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, jt)
	waitJob(t, jw)
	if jt.State() != StateDone || jw.State() != StateDone {
		t.Fatalf("states: trace=%s workload=%s", jt.State(), jw.State())
	}
	dt, dw := jt.Status().Result, jw.Status().Result
	if string(dt) != string(dw) {
		t.Fatalf("trace replay differs from generated run:\n trace   %s\n workload %s", dt, dw)
	}

	// Same file again: content-addressed store hit, no new simulation.
	ran := s.SimsRun()
	j2, err := s.Submit(JobSpec{Trace: "pr.ndptrc"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2)
	if !j2.CacheHit() || s.SimsRun() != ran {
		t.Fatalf("identical trace re-simulated (cacheHit=%v, sims %d -> %d)", j2.CacheHit(), ran, s.SimsRun())
	}

	// Rewriting the file with different content must change the key:
	// the stale cached result must not be served.
	saveWorkloadTrace(t, filepath.Join(dir, "pr.ndptrc"), "pr", 2, 1000)
	j3, err := s.Submit(JobSpec{Trace: "pr.ndptrc"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j3)
	if j3.CacheHit() {
		t.Fatal("rewritten trace file served the old cached result")
	}
	if s.SimsRun() != ran+1 {
		t.Fatalf("rewritten trace ran %d sims, want %d", s.SimsRun(), ran+1)
	}
}

// TestTraceBatch crosses designs with trace files: the matrix admits
// trace axes exactly like workloads, and a trace cell matches its
// single-submission document.
func TestTraceBatch(t *testing.T) {
	dir := t.TempDir()
	saveWorkloadTrace(t, filepath.Join(dir, "a.ndptrc"), "pr", 1, 1000)
	saveWorkloadTrace(t, filepath.Join(dir, "b.ndptrc"), "bfs", 1, 1000)

	s := newTraceScheduler(t, dir, Options{Workers: 2})
	defer s.Drain(context.Background())

	single, err := s.Submit(JobSpec{Trace: "a.ndptrc", Design: "Nexus"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, single)

	b, err := s.SubmitBatch(BatchSpec{
		Designs: []string{"NDPExt", "Nexus"},
		Traces:  []string{"a.ndptrc", "b.ndptrc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitBatch(t, b)
	if st := b.State(); st != StateDone {
		t.Fatalf("trace batch state = %s: %+v", st, b.Status())
	}
	for _, c := range b.Cells {
		if c.Design == "Nexus" && c.Trace == "a.ndptrc" {
			if !c.Status().CacheHit {
				t.Error("batch cell overlapping the single trace submission missed the store")
			}
			if string(c.Result()) != string(single.Result()) {
				t.Error("trace batch cell differs from the single-submission document")
			}
		}
	}
	// 1 single + 3 cold cells.
	if got := s.SimsRun(); got != 4 {
		t.Errorf("SimsRun = %d, want 4", got)
	}
}

// TestTraceJobValidation covers the admission guards: path confinement,
// exclusivity with generation parameters, and the disabled state.
func TestTraceJobValidation(t *testing.T) {
	dir := t.TempDir()
	s := newTraceScheduler(t, dir, Options{Workers: 1})
	defer s.Drain(context.Background())

	for name, spec := range map[string]JobSpec{
		"escape":      {Trace: "../secret.ndptrc"},
		"absolute":    {Trace: "/etc/passwd"},
		"empty-name":  {Trace: "."},
		"both":        {Workload: "pr", Trace: "x.ndptrc"},
		"gen-params":  {Trace: "x.ndptrc", Seed: 3},
		"missing":     {Trace: "nope.ndptrc"},
		"no-workload": {},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("%s: spec %+v accepted", name, spec)
		}
	}

	// Corrupt file: rejected at simulation, job fails cleanly.
	bad := filepath.Join(dir, "bad.ndptrc")
	if err := os.WriteFile(bad, []byte("NDPTRC garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(JobSpec{Trace: "bad.ndptrc"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateFailed {
		t.Fatalf("corrupt trace job ended %s, want failed", j.State())
	}

	// Without a trace registry directory, trace jobs are off.
	s2 := newTestScheduler(t, Options{Workers: 1})
	defer s2.Drain(context.Background())
	if _, err := s2.Submit(JobSpec{Trace: "pr.ndptrc"}); err == nil {
		t.Fatal("trace job accepted without a trace directory")
	}
}

// TestTraceJobMillionAccesses replays a >1M-access trace through the
// full serving path, exercising the streaming source at scale: the
// file is decoded chunk by chunk, never materialized.
func TestTraceJobMillionAccesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	dir := t.TempDir()
	tr := saveWorkloadTrace(t, filepath.Join(dir, "big.ndptrc"), "pr", 1, 8000)
	if n := tr.TotalAccesses(); n < 1_000_000 {
		t.Fatalf("trace too small for the scale test: %d accesses", n)
	}
	s := newTraceScheduler(t, dir, Options{Workers: 1})
	defer s.Drain(context.Background())
	j, err := s.Submit(JobSpec{Trace: "big.ndptrc"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateDone {
		t.Fatalf("big trace job ended %s: %s", j.State(), j.Status().Error)
	}
}
