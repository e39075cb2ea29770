// Scheduler-layer tests drive the engine directly — no HTTP anywhere.
// A layering test in the transport package enforces that this package
// (tests included) never imports net/http.
package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ndpext/internal/server/result"
	"ndpext/internal/server/store"
	"ndpext/internal/system"
)

// fastSpec is a spec small enough to simulate in well under a second.
func fastSpec(seed uint64) JobSpec {
	return JobSpec{Workload: "pr", Seed: seed, Accesses: 1000}
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
}

func newTestStore(t *testing.T, opt store.Options) *store.Store {
	t.Helper()
	st, err := store.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newTestScheduler(t *testing.T, opt Options) *Scheduler {
	t.Helper()
	s := New(newTestStore(t, store.Options{}), nil, opt)
	s.Start()
	return s
}

// TestDedupSixteenSubmissionsFourSims is the headline engine property:
// 16 concurrent submissions spanning 4 distinct configs must finish
// with exactly 4 simulations executed — every duplicate is served by
// the result store or piggybacks on the identical in-flight job.
func TestDedupSixteenSubmissionsFourSims(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 4, QueueDepth: 32})
	defer s.Drain(context.Background())

	var (
		mu   sync.Mutex
		jobs []*Job
		wg   sync.WaitGroup
	)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(fastSpec(uint64(i%4) + 1))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			jobs = append(jobs, j)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if len(jobs) != 16 {
		t.Fatalf("accepted %d of 16 submissions", len(jobs))
	}
	leaders := 0
	for _, j := range jobs {
		waitJob(t, j)
		st := j.Status()
		if st.State != StateDone {
			t.Errorf("job %s: state %s (err %q), want done", j.ID, st.State, st.Error)
		}
		if len(st.Result) == 0 {
			t.Errorf("job %s: no result document", j.ID)
		}
		if !st.CacheHit && !st.Deduped {
			leaders++
		}
	}
	if got := s.SimsRun(); got != 4 {
		t.Errorf("SimsRun = %d, want exactly 4", got)
	}
	if leaders != 4 {
		t.Errorf("%d jobs ran fresh (neither cache_hit nor deduped), want 4", leaders)
	}

	// Identical configs must produce byte-identical result documents.
	docs := map[uint64][]byte{}
	for _, j := range jobs {
		st := j.Status()
		seed := j.Spec.Seed
		if prev, ok := docs[seed]; ok {
			if !bytes.Equal(prev, st.Result) {
				t.Errorf("seed %d: result documents differ across duplicates", seed)
			}
		} else {
			docs[seed] = st.Result
		}
	}
}

// TestQueueFullBackpressure fills the queue behind a deliberately held
// worker and checks admission rejects with ErrQueueFull while
// duplicates of queued work still piggyback.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan *Job, 1)
	release := make(chan struct{})
	s := New(newTestStore(t, store.Options{}), nil, Options{Workers: 1, QueueDepth: 1})
	s.testJobStarted = func(j *Job) {
		started <- j
		<-release
	}
	s.Start()
	defer func() {
		s.Drain(context.Background())
	}()

	// First job occupies the only worker...
	a, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	// ...second fills the single queue slot...
	b, err := s.Submit(fastSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// ...third bounces.
	if _, err := s.Submit(fastSpec(3)); err != ErrQueueFull {
		t.Fatalf("Submit with full queue: err = %v, want ErrQueueFull", err)
	}
	if got := s.Rejected(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}

	// A duplicate of a queued job piggybacks instead of bouncing, even
	// with the queue full.
	dup, err := s.Submit(fastSpec(2))
	if err != nil {
		t.Fatalf("duplicate of queued job: %v", err)
	}
	if !dup.Status().Deduped {
		t.Error("duplicate of queued job did not piggyback")
	}

	close(release)
	for _, j := range []*Job{a, b, dup} {
		waitJob(t, j)
		if st := j.State(); st != StateDone {
			t.Errorf("job %s finished %s, want done", j.ID, st)
		}
	}
}

// TestAdaptiveRetryAfter checks the backpressure hint formula: the
// floor with no samples or an empty queue, scaling with backlog and
// mean duration, clamped at the ceiling.
func TestAdaptiveRetryAfter(t *testing.T) {
	floor, max := time.Second, 60*time.Second
	for _, tc := range []struct {
		queued, workers int
		mean            time.Duration
		want            time.Duration
	}{
		{queued: 5, workers: 2, mean: 0, want: floor},                // no samples yet
		{queued: 0, workers: 2, mean: 10 * time.Second, want: floor}, // nothing queued
		{queued: 4, workers: 2, mean: 3 * time.Second, want: 6 * time.Second},
		{queued: 1, workers: 4, mean: 100 * time.Millisecond, want: floor}, // below floor
		{queued: 64, workers: 1, mean: 30 * time.Second, want: max},        // clamped
	} {
		got := retryAfterFor(tc.queued, tc.workers, tc.mean, floor, max)
		if got != tc.want {
			t.Errorf("retryAfterFor(q=%d w=%d mean=%v) = %v, want %v",
				tc.queued, tc.workers, tc.mean, got, tc.want)
		}
	}

	// End to end: completed jobs feed the EWMA, and the hint grows with
	// queue depth once the mean is known.
	s := newTestScheduler(t, Options{Workers: 1, QueueDepth: 8, RetryAfter: time.Millisecond})
	defer s.Drain(context.Background())
	if got := s.RetryAfterHint(); got != time.Millisecond {
		t.Errorf("hint before any job = %v, want the floor", got)
	}
	j, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if s.meanNanos.Load() == 0 {
		t.Error("completed job did not feed the duration EWMA")
	}
}

// TestLaggedSubscriber overflows a tiny subscriber buffer and checks
// the dropped run surfaces as an explicit "lagged" event instead of a
// silent gap — and that publishing never blocks.
func TestLaggedSubscriber(t *testing.T) {
	spec := fastSpec(1).normalize()
	cfg := mustBuild(t, spec)
	j := newJob(spec.key(cfg, ""), spec, cfg)

	ch, unsub := j.events.subscribe(2)
	defer unsub()

	for i := 0; i < 10; i++ {
		j.publish(Event{Type: "epoch", Data: i}) // must never block
	}
	// Buffer held events 0 and 1; 2..9 (8 events) were dropped.
	for i := 0; i < 2; i++ {
		ev := <-ch
		if ev.Type != "epoch" {
			t.Fatalf("event %d: type %q, want epoch", i, ev.Type)
		}
	}
	// The next publish finds a free slot: the lagged marker goes first.
	j.publish(Event{Type: "epoch", Data: 10})
	ev := <-ch
	if ev.Type != "lagged" {
		t.Fatalf("after overflow: type %q, want lagged", ev.Type)
	}
	lag, ok := ev.Data.(LaggedEvent)
	if !ok || lag.Dropped != 8 {
		t.Fatalf("lagged payload = %#v, want Dropped=8", ev.Data)
	}
	ev = <-ch
	if ev.Type != "epoch" {
		t.Fatalf("after lagged marker: type %q, want the fresh epoch event", ev.Type)
	}

	// Replay still carries the complete history for a new subscriber.
	replay, unsub2 := j.Subscribe()
	defer unsub2()
	if got, want := len(replay), 11; got != want {
		t.Errorf("replay buffered %d events, want %d", got, want)
	}

	// A subscriber lagging at finish gets a best-effort lagged marker
	// before its channel closes.
	tiny, unsub3 := j.events.subscribe(0)
	_ = unsub3
	j.publish(Event{Type: "epoch", Data: 11}) // replay full: dropped
	<-tiny                                    // free one slot: the marker is best-effort
	j.finish(StateDone, []byte(`{}`), "")
	var sawLagged bool
	for ev := range tiny {
		if ev.Type == "lagged" {
			sawLagged = true
		}
	}
	if !sawLagged {
		t.Error("lagging subscriber closed without a lagged marker")
	}
}

func mustBuild(t *testing.T, js JobSpec) system.Config {
	t.Helper()
	cfg, err := js.normalize().build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestDrainNoLostJobs submits a batch, immediately drains, and checks
// every accepted job still reaches a terminal state.
func TestDrainNoLostJobs(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2, QueueDepth: 16})

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(fastSpec(uint64(i) + 1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.State(); !st.terminal() {
			t.Errorf("job %s lost in drain: state %s", j.ID, st)
		}
	}
	if _, err := s.Submit(fastSpec(1)); err != ErrDraining {
		t.Errorf("Submit after drain: err = %v, want ErrDraining", err)
	}
	if _, err := s.SubmitBatch(BatchSpec{Designs: []string{"NDPExt"}, Workloads: []string{"pr"}}); err != ErrDraining {
		t.Errorf("SubmitBatch after drain: err = %v, want ErrDraining", err)
	}
}

// TestDrainCheckpointsRunningJob forces the drain deadline to expire
// while a large job is mid-flight: the simulation must be canceled,
// checkpointed as truncated with a partial result, and never cached.
func TestDrainCheckpointsRunningJob(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1, QueueDepth: 4})

	// Big enough to still be mid-flight when the drain fires; short
	// epochs so the first epoch event (our "simulation is live" signal)
	// arrives quickly.
	big := JobSpec{Workload: "pr", Seed: 1, Accesses: 150_000, EpochCycles: 20_000}
	j, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := j.Subscribe()
	defer unsub()
	deadline := time.After(60 * time.Second)
	for live := false; !live; {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("job finished before the drain could interrupt it")
			}
			live = ev.Type == "epoch"
		case <-deadline:
			t.Fatal("no epoch event; simulation never got going")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already expired: checkpoint immediately
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	st := j.Status()
	if st.State != StateTruncated {
		t.Fatalf("checkpointed job state = %s (err %q), want truncated", st.State, st.Error)
	}
	var doc result.Doc
	if err := json.Unmarshal(st.Result, &doc); err != nil {
		t.Fatalf("partial result document: %v", err)
	}
	if !doc.Truncated || doc.TruncateReason != "canceled" {
		t.Errorf("partial doc truncated=%v reason=%q, want canceled", doc.Truncated, doc.TruncateReason)
	}
	if doc.Accesses == 0 {
		t.Error("checkpoint carries zero completed accesses")
	}
	if n := s.CacheStats().Entries; n != 0 {
		t.Errorf("canceled result entered the store (%d entries)", n)
	}
}

// TestPersistWarmRestart drains a scheduler with a populated store,
// then builds a fresh stack from the same index file and checks an
// identical submission is served instantly without simulating.
func TestPersistWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.json")

	s1 := New(newTestStore(t, store.Options{Path: path}), nil, Options{Workers: 2, QueueDepth: 8})
	s1.Start()
	j, err := s1.Submit(fastSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache index not persisted: %v", err)
	}

	s2 := New(newTestStore(t, store.Options{Path: path}), nil, Options{Workers: 2, QueueDepth: 8})
	s2.Start()
	defer s2.Drain(context.Background())
	j2, err := s2.Submit(fastSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j2) // store hits are terminal at submit; this is instant
	st := j2.Status()
	if !st.CacheHit {
		t.Error("warm-restarted scheduler missed the persisted store entry")
	}
	if st.State != StateDone {
		t.Errorf("state = %s, want done", st.State)
	}
	if got := s2.SimsRun(); got != 0 {
		t.Errorf("warm restart ran %d simulations, want 0", got)
	}
	if !bytes.Equal(st.Result, j.Status().Result) {
		t.Error("persisted result differs from the original document")
	}
}

func TestJobSpecNormalizeAndKey(t *testing.T) {
	def := JobSpec{Workload: "pr"}.normalize()
	want := JobSpec{Workload: "pr", Design: "NDPExt", Mem: "hbm", Seed: 1,
		Accesses: 30000, Scale: 1, Reconfig: "full", FaultSeed: 1, BanditSeed: 1}
	if def != want {
		t.Errorf("normalize() = %+v, want %+v", def, want)
	}

	// An omitted field and its explicit default must address the same
	// cache entry.
	keyOf := func(js JobSpec) string {
		t.Helper()
		js = js.normalize()
		cfg, err := js.build(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return js.key(cfg, "").String()
	}
	if keyOf(JobSpec{Workload: "pr"}) != keyOf(want) {
		t.Error("defaulted and explicit specs hash differently")
	}
	base := keyOf(JobSpec{Workload: "pr"})
	for name, js := range map[string]JobSpec{
		"workload":  {Workload: "bfs"},
		"design":    {Workload: "pr", Design: "Nexus"},
		"mem":       {Workload: "pr", Mem: "hmc"},
		"seed":      {Workload: "pr", Seed: 2},
		"accesses":  {Workload: "pr", Accesses: 40000},
		"scale":     {Workload: "pr", Scale: 2},
		"reconfig":  {Workload: "pr", Reconfig: "partial"},
		"epoch":     {Workload: "pr", EpochCycles: 123456},
		"faults":    {Workload: "pr", Faults: "cxl-retry,rate=0.01"},
		"faultseed": {Workload: "pr", FaultSeed: 9},
		"maxcycles": {Workload: "pr", MaxCycles: 5_000_000},
	} {
		if keyOf(js) == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}
