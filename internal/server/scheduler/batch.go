package scheduler

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"ndpext/internal/simcache"
)

// BatchSpec is the submission body of POST /v1/batch: a full
// design×workload (or design×trace) matrix in one request. Every cell
// shares Base (seed, accesses, faults, …); Designs crosses with exactly
// one of Workloads or Traces. The expansion is a job DAG: cells are
// keyed by their canonical content address, so cells shared between
// batches — or with earlier single submissions — simulate exactly once
// and fan their result out to every parent.
type BatchSpec struct {
	// Designs are system design names (see JobSpec.Design); at least one.
	Designs []string `json:"designs"`
	// Workloads are generator names; exactly one of Workloads and
	// Traces is non-empty.
	Workloads []string `json:"workloads,omitempty"`
	// Traces are registry trace names, crossed with Designs like
	// Workloads.
	Traces []string `json:"traces,omitempty"`
	// Base carries the spec fields shared by every cell. Its Design,
	// Workload, and Trace fields must be empty — the axes supply them.
	Base JobSpec `json:"base,omitempty"`
}

// validate rejects malformed matrices before any cell is prepared.
func (bs BatchSpec) validate() error {
	if len(bs.Designs) == 0 {
		return fmt.Errorf("batch: at least one design required")
	}
	if (len(bs.Workloads) == 0) == (len(bs.Traces) == 0) {
		return fmt.Errorf("batch: exactly one of workloads and traces must be non-empty")
	}
	if bs.Base.Design != "" || bs.Base.Workload != "" || bs.Base.Trace != "" {
		return fmt.Errorf("batch: base must not set design/workload/trace (the matrix axes supply them)")
	}
	for _, axis := range []struct {
		name string
		vals []string
	}{{"design", bs.Designs}, {"workload", bs.Workloads}, {"trace", bs.Traces}} {
		seen := make(map[string]bool, len(axis.vals))
		for _, v := range axis.vals {
			if seen[v] {
				return fmt.Errorf("batch: duplicate %s %q", axis.name, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// expand lists the matrix cells in canonical row-major order: designs
// outer, workloads/traces inner, exactly as given in the request.
func (bs BatchSpec) expand() []JobSpec {
	inner := bs.Workloads
	isTrace := false
	if len(bs.Traces) > 0 {
		inner, isTrace = bs.Traces, true
	}
	cells := make([]JobSpec, 0, len(bs.Designs)*len(inner))
	for _, d := range bs.Designs {
		for _, w := range inner {
			spec := bs.Base
			spec.Design = d
			if isTrace {
				spec.Trace = w
			} else {
				spec.Workload = w
			}
			cells = append(cells, spec)
		}
	}
	return cells
}

// BatchCell is one position of a batch's matrix. It records its own
// outcome — the node running it (empty on a single node), the job ID
// there, state, error, result, and whether that job was a cache hit or
// piggybacked — and publishes its progress into the batch's event log.
// Distinct cells that hash to the same content address share one
// underlying simulation.
type BatchCell struct {
	// Index is the cell's row-major position in the matrix.
	Index    int
	Design   string
	Workload string
	Trace    string
	// Spec is the cell's normalized submission; Key its content address.
	Spec JobSpec
	Key  simcache.Key

	b *Batch

	mu       sync.Mutex
	job      *Job // the local job running the cell, if any
	owner    string
	jobID    string
	state    State
	errMsg   string
	result   []byte
	cacheHit bool
	deduped  bool
}

// Batch is one accepted matrix submission: an ordered set of cells and
// one event log multiplexing their progress. Whoever runs a cell — the
// local scheduler, or a cluster peer chosen by a route function — it
// records its outcome on the cell, so status, the matrix document and
// the event stream have one implementation for both kinds of batch.
type Batch struct {
	ID   string
	Spec BatchSpec

	Cells []*BatchCell

	events *eventLog[BatchEvent]
	done   chan struct{}
}

// Done is closed when every cell has reached a terminal state.
func (b *Batch) Done() <-chan struct{} { return b.done }

// newBatch validates and expands spec and keys every cell, returning
// the batch plus one prepared (unadmitted) job per cell.
func (s *Scheduler) newBatch(spec BatchSpec) (*Batch, []*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, nil, err
	}
	b := &Batch{
		Spec:   spec,
		events: newEventLog(func(ev Event) BatchEvent { return BatchEvent{Cell: -1, Event: ev} }),
		done:   make(chan struct{}),
	}
	var jobs []*Job
	for i, cs := range spec.expand() {
		job, err := s.prepare(cs)
		if err != nil {
			return nil, nil, fmt.Errorf("batch cell (design=%s workload=%s%s): %w",
				cs.Design, cs.Workload, cs.Trace, err)
		}
		jobs = append(jobs, job)
		b.Cells = append(b.Cells, &BatchCell{
			Index:    i,
			Design:   job.Spec.Design,
			Workload: job.Spec.Workload,
			Trace:    job.Spec.Trace,
			Spec:     job.Spec,
			Key:      job.Key,
			b:        b,
			state:    StateQueued,
		})
	}
	return b, jobs, nil
}

// registerLocked names b with prefix and the next batch number and
// records it for lookup. Caller holds s.mu.
func (s *Scheduler) registerLocked(b *Batch, prefix string) {
	s.nextBatch++
	b.ID = fmt.Sprintf("%s%06d", prefix, s.nextBatch)
	s.batches[b.ID] = b
	s.batchOrder = append(s.batchOrder, b.ID)
}

// run drives every cell through route concurrently. Once every route
// has returned, the batch log closes with the final "batch" event and
// Done is released.
func (b *Batch) run(route func(*BatchCell)) {
	var wg sync.WaitGroup
	wg.Add(len(b.Cells))
	for _, c := range b.Cells {
		go func(c *BatchCell) {
			defer wg.Done()
			route(c)
		}(c)
	}
	go func() {
		wg.Wait()
		b.events.close(BatchEvent{Cell: -1, Event: Event{Type: "batch", Data: b.Status()}})
		close(b.done)
	}()
}

// SubmitBatch validates, expands, keys, and atomically admits a whole
// matrix: either every cell is admitted (store hit, piggyback, or fresh
// queue slot) or none is and ErrQueueFull reports insufficient queue
// capacity. Unique uncached cells consume one queue slot each; cells
// whose key is already stored, already in flight, or repeated within
// the batch consume none. The batch is then the one-peer case of a
// routed batch: each cell's route follows its local job. Store hits
// are recorded terminal before SubmitBatch returns.
func (s *Scheduler) SubmitBatch(spec BatchSpec) (*Batch, error) {
	b, jobs, err := s.newBatch(spec)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Count the queue slots this batch actually needs: one per unique
	// key that is neither stored nor already in flight. Contains() is a
	// stats-neutral peek, so planning doesn't skew cache counters; the
	// whole check-then-admit runs under s.mu, and workers only ever
	// free slots concurrently, so a passing plan cannot fail admission.
	needed := 0
	seen := make(map[simcache.Key]bool, len(jobs))
	for _, job := range jobs {
		if seen[job.Key] {
			continue
		}
		seen[job.Key] = true
		if s.st.Contains(job.Key) {
			continue
		}
		if _, inFlight := s.active[job.Key]; inFlight {
			continue
		}
		needed++
	}
	if free := cap(s.queue) - len(s.queue); needed > free {
		s.rejected.Add(1)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: batch needs %d slots, %d free", ErrQueueFull, needed, free)
	}
	for _, job := range jobs {
		if err := s.admitLocked(job); err != nil {
			// Unreachable outside a TTL-expiry race between the plan and
			// this admit; the cell fails cleanly, the batch proceeds.
			job.finish(StateFailed, nil, err.Error())
		}
	}
	s.registerLocked(b, "b-")
	s.mu.Unlock()

	for i, c := range b.Cells {
		c.attach("", jobs[i])
	}
	b.run(func(c *BatchCell) { c.relay(jobs[c.Index]) })
	return b, nil
}

// SubmitRoutedBatch validates, expands and keys a matrix like
// SubmitBatch, but admits nothing itself: route runs once per cell,
// concurrently, and must drive its cell to a terminal state — Follow a
// job on this node, or Routed, Publish and Finish for a job on another
// node, or Fail. Admission is therefore per-cell best-effort: one
// cell's rejection never rejects the matrix. Routed batch IDs are
// prefixed "cb-", atomically admitted ones "b-".
func (s *Scheduler) SubmitRoutedBatch(spec BatchSpec, route func(*BatchCell)) (*Batch, error) {
	b, _, err := s.newBatch(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.registerLocked(b, "cb-")
	s.mu.Unlock()
	b.run(route)
	return b, nil
}

// Batch returns a batch by ID.
func (s *Scheduler) Batch(id string) (*Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[id]
	return b, ok
}

// Batches returns every batch in submission order.
func (s *Scheduler) Batches() []*Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Batch, 0, len(s.batchOrder))
	for _, id := range s.batchOrder {
		out = append(out, s.batches[id])
	}
	return out
}

// attach records that owner runs the cell as the local job, with its
// admission verdict; a job admission already finished (a store hit)
// records the outcome too.
func (c *BatchCell) attach(owner string, job *Job) {
	st := job.Status()
	c.mu.Lock()
	c.job, c.owner, c.jobID = job, owner, st.ID
	c.state = StateRunning
	c.cacheHit, c.deduped = st.CacheHit, st.Deduped
	c.mu.Unlock()
	c.Finish(st)
}

// relay forwards the job's progress (its leader's, when piggybacked)
// into the batch log and records the outcome once the job is terminal.
func (c *BatchCell) relay(job *Job) {
	ch, unsub := job.progressTarget().Subscribe()
	defer unsub()
	for ev := range ch {
		c.Publish(ev)
	}
	<-job.Done()
	c.Finish(job.Status())
}

// Follow runs the cell as a job on this node: it records owner and the
// job, relays the job's progress into the batch log, and returns once
// the outcome is recorded.
func (c *BatchCell) Follow(owner string, job *Job) {
	c.attach(owner, job)
	c.relay(job)
}

// Routed records that owner accepted the cell as its job jobID.
func (c *BatchCell) Routed(owner, jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.state.terminal() {
		c.owner, c.jobID, c.state = owner, jobID, StateRunning
	}
}

// Publish appends one of the cell's progress events to the batch log,
// tagged with the cell's matrix position.
func (c *BatchCell) Publish(ev Event) {
	c.b.events.publish(BatchEvent{
		Cell: c.Index, Design: c.Design, Workload: c.Workload, Trace: c.Trace, Event: ev,
	})
}

// Finish records the cell's outcome from its job's terminal status. The
// first terminal outcome wins; a non-terminal status is ignored.
func (c *BatchCell) Finish(st JobStatus) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.terminal() || !st.State.terminal() {
		return
	}
	c.state, c.errMsg, c.result = st.State, st.Error, st.Result
	c.cacheHit, c.deduped = st.CacheHit, st.Deduped
	if st.ID != "" {
		c.jobID = st.ID
	}
}

// Fail records a failure no job reported (the cell could not be placed
// or followed) and publishes it as the cell's terminal event. No-op on
// a terminal cell.
func (c *BatchCell) Fail(msg string) {
	c.mu.Lock()
	if c.state.terminal() {
		c.mu.Unlock()
		return
	}
	c.state, c.errMsg = StateFailed, msg
	c.mu.Unlock()
	c.Publish(Event{Type: string(StateFailed), Data: c.Status()})
}

// Result returns the cell's result document (nil until terminal).
func (c *BatchCell) Result() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.result
}

// Status snapshots the cell. A cell running as a local job reports the
// job's live queued/running phase; it turns terminal only once its
// outcome is recorded.
func (c *BatchCell) Status() BatchCellStatus {
	c.mu.Lock()
	st := BatchCellStatus{
		Design:   c.Design,
		Workload: c.Workload,
		Trace:    c.Trace,
		Job:      c.jobID,
		Key:      c.Key.String(),
		Owner:    c.owner,
		State:    c.state,
		CacheHit: c.cacheHit,
		Deduped:  c.deduped,
		Error:    c.errMsg,
	}
	job := c.job
	c.mu.Unlock()
	if job != nil && !st.State.terminal() {
		if js := job.State(); !js.terminal() {
			st.State = js
		}
	}
	return st
}

// State aggregates the batch lifecycle (see batchState).
func (b *Batch) State() State { return b.Status().State }

// BatchCellStatus is the wire form of one cell's current state.
type BatchCellStatus struct {
	Design   string `json:"design"`
	Workload string `json:"workload,omitempty"`
	Trace    string `json:"trace,omitempty"`
	Job      string `json:"job,omitempty"`
	Key      string `json:"key"`
	// Owner is the cluster node running the cell ("" on a single node).
	Owner    string `json:"owner,omitempty"`
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Deduped  bool   `json:"deduped,omitempty"`
	Error    string `json:"error,omitempty"`
}

// BatchStatus is the wire form of a batch's current state.
type BatchStatus struct {
	ID        string            `json:"id"`
	State     State             `json:"state"`
	Designs   []string          `json:"designs"`
	Workloads []string          `json:"workloads,omitempty"`
	Traces    []string          `json:"traces,omitempty"`
	Cells     []BatchCellStatus `json:"cells"`
	Pending   int               `json:"pending"`
}

// Status snapshots the batch for API responses.
func (b *Batch) Status() BatchStatus {
	st := BatchStatus{
		ID:        b.ID,
		Designs:   b.Spec.Designs,
		Workloads: b.Spec.Workloads,
		Traces:    b.Spec.Traces,
	}
	for _, c := range b.Cells {
		cs := c.Status()
		st.Cells = append(st.Cells, cs)
		if !cs.State.terminal() {
			st.Pending++
		}
	}
	st.State = batchState(st.Cells)
	return st
}

// batchState aggregates the batch lifecycle: running while any cell is
// unfinished, then failed if any cell failed, truncated if any was cut
// short, else done.
func batchState(cells []BatchCellStatus) State {
	state := StateDone
	for _, c := range cells {
		switch c.State {
		case StateFailed:
			return StateFailed
		case StateTruncated:
			state = StateTruncated
		case StateDone:
		default:
			return StateRunning
		}
	}
	return state
}

// BatchResultCell is one cell of the canonical matrix document. Result
// is the cell's canonical result document verbatim — byte-identical to
// what the same spec submitted singly would return.
type BatchResultCell struct {
	Design   string          `json:"design"`
	Workload string          `json:"workload,omitempty"`
	Trace    string          `json:"trace,omitempty"`
	Key      string          `json:"key"`
	State    State           `json:"state"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// BatchResultDoc is the canonical matrix document: deterministic,
// canonically ordered (row-major over the request's axes), free of
// server-assigned identifiers and timestamps — the same matrix
// submitted to any server yields the same bytes once every cell is
// cacheably complete.
type BatchResultDoc struct {
	SchemaVersion int               `json:"schema_version"`
	Designs       []string          `json:"designs"`
	Workloads     []string          `json:"workloads,omitempty"`
	Traces        []string          `json:"traces,omitempty"`
	Cells         []BatchResultCell `json:"cells"`
}

// batchSchemaVersion tags the matrix document layout.
const batchSchemaVersion = 1

// ErrBatchIncomplete is returned by ResultDoc while any cell is still
// in flight.
var ErrBatchIncomplete = errors.New("scheduler: batch incomplete")

// ResultDoc renders the canonical matrix document, available once every
// cell is terminal. Cells carry their results verbatim, so a routed
// batch's document is byte-identical to a single node's for the same
// spec and results.
func (b *Batch) ResultDoc() ([]byte, error) {
	cells := make([]BatchResultCell, 0, len(b.Cells))
	for _, c := range b.Cells {
		c.mu.Lock()
		state, errMsg, result := c.state, c.errMsg, c.result
		c.mu.Unlock()
		if !state.terminal() {
			return nil, ErrBatchIncomplete
		}
		cells = append(cells, BatchResultCell{
			Design:   c.Design,
			Workload: c.Workload,
			Trace:    c.Trace,
			Key:      c.Key.String(),
			State:    state,
			Error:    errMsg,
			Result:   result,
		})
	}
	return json.Marshal(BatchResultDoc{
		SchemaVersion: batchSchemaVersion,
		Designs:       b.Spec.Designs,
		Workloads:     b.Spec.Workloads,
		Traces:        b.Spec.Traces,
		Cells:         cells,
	})
}

// BatchEvent is one multiplexed progress record: a cell's event tagged
// with its matrix position. Cell is -1 for the events that belong to
// no cell: a subscriber's own "lagged" marker and the final "batch"
// event, whose Data is the terminal BatchStatus.
type BatchEvent struct {
	Cell     int
	Design   string
	Workload string
	Trace    string
	Event    Event
}

// Subscribe returns the batch's replay-then-follow stream: every cell's
// events as its runner publishes them, closed after the final "batch"
// event. Each subscriber is bounded (a live buffer per cell) and gets
// a lagged marker after an overflow, so a slow consumer only ever lags
// its own stream.
func (b *Batch) Subscribe() (<-chan BatchEvent, func()) {
	return b.events.subscribe(subscriberBuffer * len(b.Cells))
}
