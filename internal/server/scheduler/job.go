package scheduler

import (
	"encoding/json"
	"sync"
	"time"

	"ndpext/internal/runspec"
	"ndpext/internal/simcache"
	"ndpext/internal/system"
	"ndpext/internal/telemetry"
)

// JobSpec is the submission body of POST /v1/jobs: the run spec shared
// with ndpsim (see internal/runspec).
type JobSpec = runspec.Spec

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is simulating it (or it piggybacks on an
	// identical in-flight job).
	StateRunning State = "running"
	// StateDone: finished; the result document is available.
	StateDone State = "done"
	// StateFailed: the simulation errored; Error explains.
	StateFailed State = "failed"
	// StateTruncated: a watchdog or drain checkpoint cut the run short;
	// a partial result document is available.
	StateTruncated State = "truncated"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateTruncated
}

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool { return s.terminal() }

// Event is one progress record on a job's stream. Type is the SSE event
// name: "state" (lifecycle transition), "epoch" (an epoch boundary with
// a counter snapshot), "fault" (degraded-mode activity), "lagged" (this
// subscriber's buffer overflowed; Data counts the dropped events), or a
// terminal "done"/"failed"/"truncated" carrying the final status.
type Event struct {
	Type string
	Data any // JSON-marshalable payload
}

// EpochEvent is the payload of "epoch" progress events.
type EpochEvent struct {
	Epoch         int  `json:"epoch"`
	ActiveStreams int  `json:"active_streams"`
	Reconfigured  bool `json:"reconfigured"`
	// SamplerCovered counts the streams whose samplers observed the
	// epoch just closed (system.EpochInfo.SamplerCovered).
	SamplerCovered int                `json:"sampler_covered"`
	Arm            string             `json:"arm,omitempty"`
	ArmSwitched    bool               `json:"arm_switched,omitempty"`
	Degraded       bool               `json:"degraded,omitempty"`
	Counters       telemetry.Snapshot `json:"counters"`
}

// FaultEvent is the payload of "fault" progress events.
type FaultEvent struct {
	Epoch           int  `json:"epoch"`
	FailedUnits     int  `json:"failed_units"`
	RemappedStreams int  `json:"remapped_streams"`
	Degraded        bool `json:"degraded"`
}

// LaggedEvent is the payload of "lagged" events: how many events this
// subscriber missed because its buffer was full. The full history is
// always available by re-subscribing (replay-then-follow).
type LaggedEvent struct {
	Dropped int `json:"dropped"`
}

// Job is one accepted submission. All mutable state is behind mu; the
// event log implements replay-then-follow semantics for SSE.
type Job struct {
	ID   string
	Key  simcache.Key
	Spec JobSpec // normalized
	cfg  system.Config

	// leader, when non-nil, is the identical in-flight job this one
	// piggybacks on: it never occupies a queue slot or a worker, and
	// finishes when the leader finishes.
	leader *Job

	mu        sync.Mutex
	state     State
	errMsg    string
	cacheHit  bool // served straight from the result store at submit
	deduped   bool // piggybacked on an identical in-flight job
	result    []byte
	created   time.Time
	started   time.Time
	finished  time.Time
	live      telemetry.Live
	events    *eventLog[Event]
	followers []*Job // jobs piggybacking on this one
	done      chan struct{}
}

func newJob(key simcache.Key, spec JobSpec, cfg system.Config) *Job {
	return &Job{
		Key:     key,
		Spec:    spec,
		cfg:     cfg,
		state:   StateQueued,
		created: time.Now(),
		events:  newEventLog(func(ev Event) Event { return ev }),
		done:    make(chan struct{}),
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result document (nil until terminal).
func (j *Job) Result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// CacheHit reports whether the job was served from the result store at
// submit time.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// publish appends ev to the job's event log and fans it out without
// ever blocking the publisher (see eventLog).
func (j *Job) publish(ev Event) { j.events.publish(ev) }

// Subscribe returns a channel that first replays the event history and
// then follows live events, plus an unsubscribe func. The channel is
// closed after the terminal event once the job finishes. Live delivery
// is best-effort with an explicit "lagged" marker on overflow; replay
// always carries the complete history.
func (j *Job) Subscribe() (<-chan Event, func()) { return j.events.subscribe(subscriberBuffer) }

// setRunning transitions queued -> running and announces it.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publish(Event{Type: "state", Data: map[string]string{"state": string(StateRunning)}})
}

// finish moves the job to a terminal state, records the outcome, closes
// the event log with the terminal event, and releases waiters. A
// Subscribe racing with finish always ends with the terminal event:
// the log appends it and closes subscribers in one critical section.
func (j *Job) finish(state State, result []byte, errMsg string) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()

	j.events.close(Event{Type: string(state), Data: j.Status()})
	close(j.done)
}

// progressTarget is the job whose event stream carries this job's
// progress: the leader for piggybacked jobs, itself otherwise.
func (j *Job) progressTarget() *Job {
	if j.leader != nil {
		return j.leader
	}
	return j
}

// ProgressTarget is the job whose event stream carries this job's
// progress (the leader for piggybacked jobs).
func (j *Job) ProgressTarget() *Job { return j.progressTarget() }

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Owner is the cluster node that owns this job's key ("" outside
	// cluster mode). Filled by the transport layer from the ring, never
	// by the scheduler.
	Owner      string              `json:"owner,omitempty"`
	CacheHit   bool                `json:"cache_hit,omitempty"`
	Deduped    bool                `json:"deduped,omitempty"`
	Error      string              `json:"error,omitempty"`
	CreatedAt  time.Time           `json:"created_at"`
	StartedAt  *time.Time          `json:"started_at,omitempty"`
	FinishedAt *time.Time          `json:"finished_at,omitempty"`
	Progress   *telemetry.Snapshot `json:"progress,omitempty"`
	Spec       JobSpec             `json:"spec"`
	Result     json.RawMessage     `json:"result,omitempty"`
}

// Status snapshots the job for API responses.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:        j.ID,
		Key:       j.Key.String(),
		State:     j.state,
		CacheHit:  j.cacheHit,
		Deduped:   j.deduped,
		Error:     j.errMsg,
		CreatedAt: j.created,
		Spec:      j.Spec,
		Result:    json.RawMessage(j.result),
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	j.mu.Unlock()
	if snap, ok := j.progressTarget().live.Load(); ok {
		st.Progress = &snap
	}
	return st
}
