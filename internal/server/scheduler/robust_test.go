package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpext/internal/server/result"
	"ndpext/internal/server/store"
	"ndpext/internal/system"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

// poisonSeed marks specs the test SimHook panics on.
const poisonSeed = 66_6666

func poisonHook(spec JobSpec) {
	if spec.Seed == poisonSeed {
		panic("chaos: injected simulation panic")
	}
}

// TestPanicIsolation: a panicking simulation fails its own job — with
// the stack in the error — and nothing else. Siblings finish, the
// counter increments, the worker survives, and resubmitting the poison
// spec fails again the same way (errors are never cached).
func TestPanicIsolation(t *testing.T) {
	s := New(newTestStore(t, store.Options{}), nil, Options{
		Workers: 2, QueueDepth: 16, SimHook: poisonHook,
	})
	s.Start()
	defer s.Drain(context.Background())

	poison, err := s.Submit(fastSpec(poisonSeed))
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, poison)
	waitJob(t, sibling)

	if got := poison.State(); got != StateFailed {
		t.Fatalf("poison job state = %s, want failed", got)
	}
	errMsg := poison.Status().Error
	if !strings.Contains(errMsg, "injected simulation panic") {
		t.Errorf("poison error lost the panic value: %q", errMsg)
	}
	if !strings.Contains(errMsg, "goroutine") || !strings.Contains(errMsg, ".go:") {
		t.Errorf("poison error lost the stack trace: %q", errMsg)
	}
	if got := sibling.State(); got != StateDone {
		t.Errorf("sibling state = %s, want done (err %q)", got, sibling.Status().Error)
	}
	if got := s.PanicsRecovered(); got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
	if s.st.Contains(poison.Key) {
		t.Error("panic outcome entered the result store")
	}

	// The poison spec is re-submittable and fails again — fresh run, not
	// a cached error, not a wedged leader.
	again, err := s.Submit(fastSpec(poisonSeed))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, again)
	if got := again.State(); got != StateFailed {
		t.Fatalf("resubmitted poison state = %s, want failed", got)
	}
	if got := s.PanicsRecovered(); got != 2 {
		t.Errorf("PanicsRecovered after resubmit = %d, want 2", got)
	}

	// The worker pool still does real work afterwards.
	ok, err := s.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, ok)
	if got := ok.State(); got != StateDone {
		t.Errorf("post-panic job state = %s, want done (err %q)", got, ok.Status().Error)
	}
}

// TestPanicFansOutToFollowers: submissions piggybacked on a leader that
// panics must fail with the same diagnostic, and the key must be
// released so the next identical submission starts fresh.
func TestPanicFansOutToFollowers(t *testing.T) {
	hold := make(chan struct{})
	var once sync.Once
	s := New(newTestStore(t, store.Options{}), nil, Options{
		Workers: 1, QueueDepth: 16,
		SimHook: func(spec JobSpec) {
			if spec.Seed == poisonSeed {
				<-hold // let the follower piggyback first
				panic("chaos: injected simulation panic")
			}
		},
	})
	started := make(chan *Job, 1)
	s.testJobStarted = func(j *Job) {
		once.Do(func() { started <- j })
	}
	s.Start()
	defer s.Drain(context.Background())

	leader, err := s.Submit(fastSpec(poisonSeed))
	if err != nil {
		t.Fatal(err)
	}
	<-started // leader is on the worker, holding in the hook
	follower, err := s.Submit(fastSpec(poisonSeed))
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Status().Deduped {
		t.Fatal("second identical submission did not piggyback")
	}
	close(hold)

	waitJob(t, leader)
	waitJob(t, follower)
	for _, j := range []*Job{leader, follower} {
		if got := j.State(); got != StateFailed {
			t.Errorf("job %s state = %s, want failed", j.ID, got)
		}
		if !strings.Contains(j.Status().Error, "injected simulation panic") {
			t.Errorf("job %s error = %q, want the panic diagnostic", j.ID, j.Status().Error)
		}
	}
	if got := s.PanicsRecovered(); got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1 (one run, two failures)", got)
	}

	// Key released: an identical submission is a fresh leader, not a
	// follower of a corpse.
	fresh, err := s.Submit(fastSpec(poisonSeed))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Status().Deduped {
		t.Error("submission after panic piggybacked on a finished leader")
	}
	waitJob(t, fresh)
}

// TestDeadlineTruncates: a job with deadline_ms lands truncated with a
// partial result document, which never enters the store.
func TestDeadlineTruncates(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1, QueueDepth: 4})
	defer s.Drain(context.Background())

	spec := JobSpec{Workload: "pr", Seed: 1, Accesses: 500000, DeadlineMS: 1}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if got := j.State(); got != StateTruncated {
		t.Fatalf("deadline job state = %s, want truncated (err %q)", got, j.Status().Error)
	}
	if doc := j.Result(); doc == nil {
		t.Error("deadline-truncated job has no partial result document")
	}
	if s.st.Contains(j.Key) {
		t.Error("deadline-truncated result entered the store")
	}

	// deadline_ms is not part of the cache key: the same inputs without
	// a deadline address the same entry.
	noDeadline := spec
	noDeadline.DeadlineMS = 0
	cfg := mustBuild(t, noDeadline)
	if noDeadline.Normalize().Key(cfg, "") != j.Key {
		t.Error("deadline_ms leaked into the cache key")
	}

	// Negative deadlines are rejected at validation.
	if _, err := s.Submit(JobSpec{Workload: "pr", DeadlineMS: -5}); err == nil {
		t.Error("negative deadline_ms accepted")
	}
}

// TestMaxWallNotKeyed: Options.MaxWall (ndpserve's -max-wall) is a
// deadline, not an input, so a spec keys the same under any default
// wall limit and nodes started with different flags share results.
func TestMaxWallNotKeyed(t *testing.T) {
	spec := JobSpec{Workload: "pr"}
	keyUnder := func(wall time.Duration) string {
		t.Helper()
		k, err := New(newTestStore(t, store.Options{}), nil, Options{MaxWall: wall}).KeyFor(spec)
		if err != nil {
			t.Fatal(err)
		}
		return k.String()
	}
	if none, tenSec := keyUnder(0), keyUnder(10*time.Second); none != tenSec {
		t.Errorf("spec keys %s with no wall limit and %s under 10s", none, tenSec)
	}
}

// TestMaxWallTruncates: a job that sets no deadline_ms runs under
// Options.MaxWall and, when it expires, lands truncated with the
// wall-clock reason and a partial document that never enters the store.
func TestMaxWallTruncates(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1, QueueDepth: 4, MaxWall: time.Nanosecond})
	defer s.Drain(context.Background())

	j, err := s.Submit(JobSpec{Workload: "pr", Accesses: 20000})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if got := j.State(); got != StateTruncated {
		t.Fatalf("wall-limited job state = %s, want truncated (err %q)", got, j.Status().Error)
	}
	var doc result.Doc
	if err := json.Unmarshal(j.Result(), &doc); err != nil {
		t.Fatalf("partial result document: %v", err)
	}
	if doc.TruncateReason != "wall-clock limit exceeded" {
		t.Errorf("truncate reason = %q, want the wall-clock limit", doc.TruncateReason)
	}
	if s.st.Contains(j.Key) {
		t.Error("wall-truncated result entered the store")
	}
}

// writeSchedTrace writes a small valid trace and returns its path.
func writeSchedTrace(t *testing.T, dir, name string, seed uint64) string {
	t.Helper()
	gen, err := workloads.Get("pr")
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = 200
	tr, err := gen(system.DefaultConfig(system.NDPExt).NumUnits(), seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// corruptChunk flips one byte inside the payload of chunk i, leaving
// header and index intact so the file opens but fails CRC mid-replay.
func corruptChunk(t *testing.T, path string, i int) {
	t.Helper()
	r, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := r.ChunkFileOffset(i) + 20 // past the chunk header, in the payload
	r.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTraceQuarantineMidReplay: a trace whose CRC fails mid-replay
// fails its job (not the server), quarantines the digest, and causes
// subsequent submissions of the same bytes to be rejected at admission.
func TestTraceQuarantineMidReplay(t *testing.T) {
	dir := t.TempDir()
	writeSchedTrace(t, dir, "bad.ndptrc", 7)
	corruptChunk(t, filepath.Join(dir, "bad.ndptrc"), 0)
	writeSchedTrace(t, dir, "good.ndptrc", 8)

	s := New(newTestStore(t, store.Options{}), store.NewTraceRegistry(dir),
		Options{Workers: 2, QueueDepth: 8})
	s.Start()
	defer s.Drain(context.Background())

	// Admission succeeds: the digest hashes bytes, it cannot see CRCs.
	bad, err := s.Submit(JobSpec{Trace: "bad.ndptrc"})
	if err != nil {
		t.Fatalf("admission of not-yet-proven-corrupt trace: %v", err)
	}
	good, err := s.Submit(JobSpec{Trace: "good.ndptrc"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, bad)
	waitJob(t, good)

	if got := bad.State(); got != StateFailed {
		t.Fatalf("corrupt-trace job state = %s, want failed (err %q)", got, bad.Status().Error)
	}
	if !strings.Contains(bad.Status().Error, "quarantined") {
		t.Errorf("corrupt-trace error does not mention quarantine: %q", bad.Status().Error)
	}
	if bad.Result() != nil {
		t.Error("corrupt-trace job kept a partial result built on bad bytes")
	}
	if got := good.State(); got != StateDone {
		t.Errorf("good trace job state = %s, want done (err %q)", got, good.Status().Error)
	}
	if got := s.TraceQuarantines(); got != 1 {
		t.Errorf("TraceQuarantines = %d, want 1", got)
	}
	if s.st.Contains(bad.Key) {
		t.Error("corrupt-trace outcome entered the result store")
	}

	// The digest is marked: resubmission is rejected at admission.
	if _, err := s.Submit(JobSpec{Trace: "bad.ndptrc"}); !errors.Is(err, store.ErrTraceQuarantined) {
		t.Errorf("resubmission err = %v, want ErrTraceQuarantined", err)
	}
}

// TestTraceQuarantineAtOpen: a trace corrupted in its header fails at
// OpenFile — that path must quarantine too.
func TestTraceQuarantineAtOpen(t *testing.T) {
	dir := t.TempDir()
	path := writeSchedTrace(t, dir, "mangled.ndptrc", 9)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF // destroy the magic
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(newTestStore(t, store.Options{}), store.NewTraceRegistry(dir),
		Options{Workers: 1, QueueDepth: 4})
	s.Start()
	defer s.Drain(context.Background())

	j, err := s.Submit(JobSpec{Trace: "mangled.ndptrc"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if got := j.State(); got != StateFailed {
		t.Fatalf("mangled-trace job state = %s, want failed", got)
	}
	if got := s.TraceQuarantines(); got != 1 {
		t.Errorf("TraceQuarantines = %d, want 1", got)
	}
	if _, err := s.Submit(JobSpec{Trace: "mangled.ndptrc"}); !errors.Is(err, store.ErrTraceQuarantined) {
		t.Errorf("resubmission err = %v, want ErrTraceQuarantined", err)
	}
}
