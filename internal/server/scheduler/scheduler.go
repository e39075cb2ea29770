// Package scheduler is the middle layer of the serving stack: queue
// admission, the bounded worker pool, per-job watchdogs, cooperative
// cancellation and drain, and the batch job DAG that expands a
// design×workload matrix into unique content-addressed cells, runs each
// unique cell exactly once, and fans results out to every parent batch.
//
// Job lifecycle: queued -> running -> done | failed | truncated. A
// submission whose key is already stored completes instantly
// (cache_hit); one whose key is already queued/running piggybacks on
// that job (deduped) without consuming a queue slot. A full queue
// rejects with ErrQueueFull, which the transport layer surfaces as
// HTTP 429 with an adaptive Retry-After hint.
//
// Layering: scheduler imports store (results, trace registry) and the
// simulation packages, and is imported by transport. It must never
// import net/http — an arch test enforces this.
package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ndpext/internal/runspec"
	"ndpext/internal/server/result"
	"ndpext/internal/server/store"
	"ndpext/internal/simcache"
	"ndpext/internal/system"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

// Options configures a Scheduler. Zero values take the documented
// defaults.
type Options struct {
	// Workers bounds concurrent simulations; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; default 64. A full
	// queue is backpressure: submissions get ErrQueueFull.
	QueueDepth int
	// RetryAfter is the floor of the adaptive retry hint returned with
	// queue-full rejections; default 1s.
	RetryAfter time.Duration
	// RetryAfterMax clamps the adaptive retry hint; default 60s.
	RetryAfterMax time.Duration
	// MaxWall is the wall-clock deadline of a job whose spec sets no
	// deadline_ms, and MaxCycles the cycle budget of one that sets no
	// max_cycles (0 disables). MaxWall never enters a cache key.
	MaxWall   time.Duration
	MaxCycles int64
	// SimHook, when non-nil, runs at the top of every simulation on the
	// worker goroutine, inside the panic-recovery scope. It exists as the
	// chaos-injection seam: a hook that panics exercises exactly the
	// path a panicking simulation would.
	SimHook func(JobSpec)
	// OnStored, when non-nil, runs on the worker goroutine after a
	// freshly simulated document first enters the result store (cache
	// hits, piggybacks, and uncacheable outcomes excluded). The cluster
	// layer hooks successor replication here; implementations must not
	// block the worker — spawn a goroutine for anything slow.
	OnStored func(key simcache.Key, doc []byte)
	// IDPrefix namespaces job IDs ("j-" by default, yielding j-000001).
	// Cluster nodes set a per-node prefix so IDs never collide across
	// peers and a proxied lookup is unambiguous.
	IDPrefix string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.RetryAfterMax <= 0 {
		o.RetryAfterMax = 60 * time.Second
	}
	if o.RetryAfterMax < o.RetryAfter {
		o.RetryAfterMax = o.RetryAfter
	}
	if o.IDPrefix == "" {
		o.IDPrefix = "j-"
	}
	return o
}

// Scheduler is the simulation-scheduling engine, independent of HTTP
// wiring (the transport layer attaches routes; tests drive it
// directly).
type Scheduler struct {
	opt    Options
	st     *store.Store
	traces *store.TraceRegistry

	// genTraces dedupes generated workload traces across jobs whose
	// workload parameters and unit counts agree.
	genTraces *runspec.Traces

	queue chan *Job

	mu         sync.Mutex
	accepting  bool
	jobs       map[string]*Job
	order      []string              // submission order, for listing
	active     map[simcache.Key]*Job // queued/running leaders by key
	batches    map[string]*Batch
	batchOrder []string
	nextID     int
	nextBatch  int

	wg        sync.WaitGroup
	runCtx    context.Context // canceled to checkpoint running sims
	runCancel context.CancelFunc

	simsRun   atomic.Uint64 // simulations actually executed
	rejected  atomic.Uint64 // submissions bounced with queue-full
	dedups    atomic.Uint64 // submissions piggybacked on an in-flight job
	meanNanos atomic.Uint64 // EWMA of completed job durations (ns)
	panics    atomic.Uint64 // worker panics recovered into failed jobs

	// testJobStarted, when non-nil, is invoked at the top of runJob —
	// tests use it to hold a worker and fill the queue deterministically.
	testJobStarted func(*Job)
}

// New builds a scheduler on top of a result store and (optionally
// disabled) trace registry. Call Start to launch the workers.
func New(st *store.Store, traces *store.TraceRegistry, opt Options) *Scheduler {
	opt = opt.withDefaults()
	if traces == nil {
		traces = store.NewTraceRegistry("")
	}
	runCtx, runCancel := context.WithCancel(context.Background())
	return &Scheduler{
		opt:       opt,
		st:        st,
		traces:    traces,
		genTraces: runspec.NewTraces(),
		queue:     make(chan *Job, opt.QueueDepth),
		accepting: true,
		jobs:      make(map[string]*Job),
		active:    make(map[simcache.Key]*Job),
		batches:   make(map[string]*Batch),
		runCtx:    runCtx,
		runCancel: runCancel,
	}
}

// Start launches the worker pool.
func (s *Scheduler) Start() {
	for i := 0; i < s.opt.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
}

// ErrQueueFull is returned by Submit when backpressure applies.
var ErrQueueFull = errors.New("scheduler: job queue full")

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("scheduler: draining, not accepting jobs")

// prepare validates and keys one spec, returning an unregistered job
// ready for admission.
func (s *Scheduler) prepare(spec JobSpec) (*Job, error) {
	spec = spec.Normalize()
	cfg, err := spec.Build(s.opt.MaxCycles)
	if err != nil {
		return nil, err
	}
	var digest string
	if spec.Trace != "" {
		// Digest the trace now, at admission: the key must name the
		// bytes the job will replay, and a file swapped mid-queue must
		// not silently serve a stale cached result.
		digest, err = s.traces.Digest(spec.Trace)
		if err != nil {
			return nil, err
		}
	}
	return newJob(spec.Key(cfg, digest), spec, cfg), nil
}

// KeyFor validates and normalizes spec and returns its content
// address — the SHA-256 the job would be cached and deduplicated
// under — without admitting anything. The cluster router keys every
// submission here to decide which peer owns it; because normalization
// and trace digesting run exactly as in Submit, the routing key and the
// execution key can never disagree.
func (s *Scheduler) KeyFor(spec JobSpec) (simcache.Key, error) {
	job, err := s.prepare(spec)
	if err != nil {
		return simcache.Key{}, err
	}
	return job.Key, nil
}

// Cached reports whether the result store already holds key, without
// touching recency or stats. The cluster router serves replicated
// entries locally instead of forwarding to a (possibly dead) owner.
func (s *Scheduler) Cached(key simcache.Key) bool { return s.st.Contains(key) }

// InstallResult stores a canonical result document computed elsewhere
// under its content address — the receiving half of cluster
// replication. The document must be valid JSON; the key is trusted to
// be its content address (peers compute keys from the same canonical
// inputs, so a correct peer cannot disagree).
func (s *Scheduler) InstallResult(keyHex string, doc []byte) error {
	key, err := simcache.ParseKey(keyHex)
	if err != nil {
		return err
	}
	if !json.Valid(doc) {
		return fmt.Errorf("scheduler: replicated document for %s is not valid JSON", keyHex)
	}
	s.st.Put(key, doc)
	return nil
}

// Submit validates, keys, and admits one job. The fast paths — result
// already stored, or an identical job already in flight — never consume
// a queue slot; otherwise the job is enqueued or, when the queue is
// full, rejected with ErrQueueFull.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	job, err := s.prepare(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.accepting {
		return nil, ErrDraining
	}
	if err := s.admitLocked(job); err != nil {
		return nil, err
	}
	return job, nil
}

// admitLocked assigns an ID and admits one prepared job: piggyback on
// an identical in-flight leader, store hit, or a fresh queue slot. The
// in-flight check comes first, so each admission moves exactly one of
// the dedup, hit and miss counters. Caller holds s.mu.
func (s *Scheduler) admitLocked(job *Job) error {
	s.nextID++
	job.ID = fmt.Sprintf("%s%06d", s.opt.IDPrefix, s.nextID)

	if leader, ok := s.active[job.Key]; ok {
		// Identical job already in flight: piggyback, costing nothing.
		job.leader = leader
		job.deduped = true
		s.dedups.Add(1)
		s.register(job)
		leader.mu.Lock()
		leader.followers = append(leader.followers, job)
		leader.mu.Unlock()
		job.publish(Event{Type: "state", Data: map[string]string{
			"state": string(StateQueued), "piggyback_on": leader.ID}})
		return nil
	}
	if doc, ok := s.st.Get(job.Key); ok {
		// Content-addressed hit: done before it ever queued.
		job.cacheHit = true
		s.register(job)
		job.finish(stateForDoc(doc), doc, "")
		return nil
	}
	select {
	case s.queue <- job:
	default:
		s.nextID-- // the ID was never exposed
		s.rejected.Add(1)
		return ErrQueueFull
	}
	s.active[job.Key] = job
	s.register(job)
	job.publish(Event{Type: "state", Data: map[string]string{"state": string(StateQueued)}})
	return nil
}

// register records the job for lookup/listing. Caller holds s.mu.
func (s *Scheduler) register(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// Job returns a job by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// SimsRun counts simulations actually executed (store hits and
// piggybacked submissions excluded) — the denominator for verifying
// deduplication.
func (s *Scheduler) SimsRun() uint64 { return s.simsRun.Load() }

// CacheStats exposes the result store counters, with Dedups counting
// the submissions that piggybacked on an identical in-flight job.
func (s *Scheduler) CacheStats() simcache.Stats {
	cs := s.st.Stats()
	cs.Dedups = s.dedups.Load()
	return cs
}

// QueueDepth returns (queued, capacity).
func (s *Scheduler) QueueDepth() (int, int) { return len(s.queue), cap(s.queue) }

// Workers returns the worker-pool size.
func (s *Scheduler) Workers() int { return s.opt.Workers }

// Rejected counts submissions bounced by backpressure.
func (s *Scheduler) Rejected() uint64 { return s.rejected.Load() }

// Traces returns the trace registry (disabled, never nil).
func (s *Scheduler) Traces() *store.TraceRegistry { return s.traces }

// PanicsRecovered counts worker panics recovered into failed jobs
// (surfaced on /healthz; the process survived every one of them).
func (s *Scheduler) PanicsRecovered() uint64 { return s.panics.Load() }

// IndexQuarantines counts corrupt warm-restart indexes quarantined at
// store open.
func (s *Scheduler) IndexQuarantines() uint64 { return s.st.IndexQuarantines() }

// TraceQuarantines counts trace digests quarantined after corrupt
// replays.
func (s *Scheduler) TraceQuarantines() uint64 { return s.traces.Quarantines() }

// observeDuration folds one completed job's wall time into the EWMA
// that drives the adaptive Retry-After hint.
func (s *Scheduler) observeDuration(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := s.meanNanos.Load()
		next := uint64(d)
		if old != 0 {
			next = uint64(0.8*float64(old) + 0.2*float64(d))
		}
		if s.meanNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterFor derives the backpressure hint: the time for the current
// backlog to drain through the worker pool at the recent mean job
// duration, clamped to [floor, max]. With no duration samples yet the
// floor applies.
func retryAfterFor(queued, workers int, mean time.Duration, floor, max time.Duration) time.Duration {
	hint := floor
	if mean > 0 && queued > 0 && workers > 0 {
		est := time.Duration(math.Ceil(float64(queued) * float64(mean) / float64(workers)))
		if est > hint {
			hint = est
		}
	}
	if hint > max {
		hint = max
	}
	return hint
}

// RetryAfterHint is the adaptive Retry-After for queue-full rejections:
// queue depth × recent mean job duration / workers, clamped between
// Options.RetryAfter and Options.RetryAfterMax.
func (s *Scheduler) RetryAfterHint() time.Duration {
	return retryAfterFor(len(s.queue), s.opt.Workers,
		time.Duration(s.meanNanos.Load()), s.opt.RetryAfter, s.opt.RetryAfterMax)
}

// errNotCacheable marks outcomes that must not enter the result store:
// checkpoints of runs a deadline or a drain stopped.
var errNotCacheable = errors.New("scheduler: result not cacheable")

// ErrPanicked marks a job whose simulation panicked. The worker
// recovered, the job failed with the stack in its error, and the
// process kept serving — a poison spec can be resubmitted (errors are
// never cached) and will fail again the same way.
var ErrPanicked = errors.New("scheduler: simulation panicked (recovered)")

// stateForDoc distinguishes done from truncated for a (possibly
// cached) result document.
func stateForDoc(doc []byte) State {
	if result.Truncated(doc) {
		return StateTruncated
	}
	return StateDone
}

// runJob executes one leader job on the calling worker and finishes
// it and its followers with the outcome.
func (s *Scheduler) runJob(job *Job) {
	state, doc, errMsg := s.execute(job)
	s.complete(job, state, doc, errMsg)
}

// execute runs one leader job and classifies the outcome. A panic
// anywhere in the run is the job's failure, never the process's: the
// one recover turns it into a failed outcome, which complete fans out
// to the followers, and nothing enters the store.
func (s *Scheduler) execute(job *Job) (state State, doc []byte, errMsg string) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			state, doc, errMsg = StateFailed, nil, fmt.Sprintf("%v: %v\n\n%s", ErrPanicked, p, debug.Stack())
		}
	}()
	if s.testJobStarted != nil {
		s.testJobStarted(job)
	}
	job.setRunning()

	// A replica installed while the job was queued serves it without
	// simulating. Contains leaves the counters alone, so a fresh key
	// counts only its admission miss.
	if s.st.Contains(job.Key) {
		if doc, ok := s.st.Get(job.Key); ok {
			return stateForDoc(doc), doc, ""
		}
	}
	doc, err := s.simulate(job)
	switch {
	case err == nil:
		s.st.Put(job.Key, doc)
		if s.opt.OnStored != nil {
			// A fresh document just entered the store; let the cluster
			// layer replicate it to the ring successor.
			s.opt.OnStored(job.Key, doc)
		}
		return stateForDoc(doc), doc, ""
	case errors.Is(err, errNotCacheable):
		// Checkpoint: simulate returns the partial document with every
		// such error; keep it with the job, out of the store.
		return StateTruncated, doc, ""
	default:
		return StateFailed, nil, err.Error()
	}
}

// complete is the one terminal path of a leader job. It releases the
// key and collects the followers under s.mu, so a new submission of
// the key either sees the stored entry or starts fresh, never a
// finished leader. It feeds the duration EWMA before any Done channel
// closes, then finishes the leader and every follower alike.
func (s *Scheduler) complete(job *Job, state State, doc []byte, errMsg string) {
	s.mu.Lock()
	delete(s.active, job.Key)
	job.mu.Lock()
	followers, started := job.followers, job.started
	job.mu.Unlock()
	s.mu.Unlock()

	if !started.IsZero() {
		s.observeDuration(time.Since(started))
	}
	job.finish(state, doc, errMsg)
	for _, f := range followers {
		f.finish(state, doc, errMsg)
	}
}

// simulate runs the job's simulation, publishing progress events, and
// returns the canonical result document. Errors wrap errNotCacheable
// when the outcome is nondeterministic (deadline, cancellation).
func (s *Scheduler) simulate(job *Job) ([]byte, error) {
	s.simsRun.Add(1)
	if s.opt.SimHook != nil {
		s.opt.SimHook(job.Spec)
	}
	// Trace-backed jobs replay through a streaming source — memory stays
	// bounded at one decoded chunk per core however long the file is.
	// Generated workloads replay their shared materialized trace.
	var src workloads.Source
	if job.Spec.Trace != "" {
		path, err := s.traces.Resolve(job.Spec.Trace)
		if err != nil {
			return nil, err
		}
		r, err := trace.OpenFile(path)
		if err != nil {
			return nil, s.quarantineIfCorrupt(job.Spec.Trace, err)
		}
		defer r.Close()
		rs, err := r.Source()
		if err != nil {
			return nil, s.quarantineIfCorrupt(job.Spec.Trace, err)
		}
		src = rs
	} else {
		tr, err := s.genTraces.Get(job.Spec, job.cfg.NumUnits())
		if err != nil {
			return nil, err
		}
		src = tr.Source()
	}
	cfg := job.cfg
	cfg.OnEpoch = func(ei system.EpochInfo) {
		job.live.Publish(ei.Counters)
		job.publish(Event{Type: "epoch", Data: EpochEvent{
			Epoch:          ei.Epoch,
			ActiveStreams:  ei.ActiveStreams,
			Reconfigured:   ei.Reconfigured,
			SamplerCovered: ei.SamplerCovered,
			Arm:            ei.Arm,
			ArmSwitched:    ei.ArmSwitched,
			Degraded:       ei.Degraded,
			Counters:       ei.Counters,
		}})
		if ei.Degraded || ei.RemappedStreams > 0 {
			job.publish(Event{Type: "fault", Data: FaultEvent{
				Epoch:           ei.Epoch,
				FailedUnits:     ei.FailedUnits,
				RemappedStreams: ei.RemappedStreams,
				Degraded:        ei.Degraded,
			}})
		}
	}
	// The job's deadline (its deadline_ms, else Options.MaxWall) nests
	// inside the drain context: the run checkpoints as truncated when
	// it expires, exactly like a drain cancellation. The deadline is
	// deliberately NOT part of the cache key — a run that finishes
	// under it is byte-identical to one without it, and a
	// deadline-truncated result is never cached. (A submission that
	// piggybacks on an in-flight identical job rides that job's
	// deadline, not its own.)
	runCtx := s.runCtx
	wall := s.opt.MaxWall
	if job.Spec.DeadlineMS > 0 {
		wall = time.Duration(job.Spec.DeadlineMS) * time.Millisecond
	}
	if wall > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, wall)
		defer cancel()
	}
	res, err := system.RunContext(runCtx, cfg, src)
	if err != nil {
		if job.Spec.Trace != "" && errors.Is(err, trace.ErrCorrupt) {
			// Mid-replay corruption (a CRC mismatch the admission-time
			// digest could not see): the partial result is built on bad
			// bytes — discard it, fail the job, and quarantine the
			// digest so the next submission is rejected at admission.
			return nil, s.quarantineIfCorrupt(job.Spec.Trace, err)
		}
		if res == nil {
			return nil, err
		}
		// Checkpoint (drain cancellation or deadline expiry): encode the
		// partial result but keep it out of the store.
		doc, encErr := result.Encode(res)
		if encErr != nil {
			return nil, encErr
		}
		return doc, fmt.Errorf("%w: %w", errNotCacheable, err)
	}
	return result.Encode(res)
}

// quarantineIfCorrupt marks the named trace's digest bad when err
// proves its bytes corrupt (trace.ErrCorrupt), so subsequent
// submissions are rejected at admission instead of replaying garbage.
// Non-corruption errors (missing file, cores mismatch, I/O) pass
// through unmarked — those are not the bytes' fault.
func (s *Scheduler) quarantineIfCorrupt(name string, err error) error {
	if !errors.Is(err, trace.ErrCorrupt) {
		return err
	}
	digest := s.traces.Quarantine(name, err)
	if digest == "" {
		return err
	}
	return fmt.Errorf("scheduler: trace %q quarantined (digest %s): %w", name, digest, err)
}

// Drain gracefully shuts the engine down: stop accepting submissions,
// let the workers finish every queued and running job, then persist the
// result-store index. If ctx expires first, running simulations are
// canceled — they checkpoint partial results and finish as truncated —
// and Drain still waits for the workers to wind down before persisting.
// No accepted job is ever lost: every one reaches a terminal state.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := !s.accepting
	s.accepting = false
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.runCancel() // checkpoint running sims
		<-done
	}
	s.runCancel()

	return s.st.Persist()
}
