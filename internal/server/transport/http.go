// Package transport is the HTTP edge of the serving stack: JSON
// routing, request decoding and validation, SSE streaming, and status
// codes. It holds no scheduling or storage logic of its own — every
// decision is delegated to the scheduler layer — and it is the only
// serving-stack layer allowed to import net/http (enforced by an arch
// test). That seam is where a sharded-cluster mode will later plug
// consistent-hash forwarding without touching the engine.
package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
	"ndpext/internal/system"
	"ndpext/internal/workloads"
)

// Handler returns the HTTP API over a scheduler:
//
//	POST /v1/jobs               submit a JobSpec; 202 with the job status
//	                            (200 immediately when served from cache),
//	                            429 + adaptive Retry-After under backpressure,
//	                            503 while draining
//	GET  /v1/jobs               list all jobs (newest last)
//	GET  /v1/jobs/{id}          one job's status (result inlined when done)
//	GET  /v1/jobs/{id}/result   the raw canonical result document
//	GET  /v1/jobs/{id}/events   live progress as Server-Sent Events
//	POST /v1/batch              submit a BatchSpec matrix; 202 with the
//	                            batch status (200 when every cell was
//	                            already cached); also served at /batch
//	GET  /v1/batch/{id}         batch status with per-cell states (any
//	                            batch: local "b-" or cluster-routed "cb-")
//	GET  /v1/batch/{id}/result  the canonical matrix document (409 until
//	                            every cell is terminal)
//	GET  /v1/batch/{id}/events  multiplexed per-cell progress as SSE
//	GET  /v1/workloads          available workload generators
//	GET  /v1/traces             the trace registry (name, bytes, digest)
//	GET  /v1/stats              queue, cache, and dedup counters
//	GET  /v1/healthz            liveness + queue/cache/dedup counters;
//	                            also served at /healthz
//	GET  /jobs                  job summaries wrapped with the counters
func Handler(s *scheduler.Scheduler) http.Handler {
	return NewHandler(s, Options{})
}

// Options configures the transport edge. Zero values take the
// documented defaults.
type Options struct {
	// MaxBody bounds job/batch submission bodies in bytes; oversized
	// requests get 413. Default 1 MiB — a legitimate batch matrix is a
	// few KiB; megabytes of spec is an accident or an attack.
	MaxBody int64
	// Cluster, when non-nil, is polled per request to embed a cluster
	// document (ring size, peer states, forwarding counters) in
	// /v1/healthz, /v1/stats, and /jobs. The cluster layer installs it;
	// single-node servers leave it nil and the section is omitted.
	Cluster func() any
	// OwnerOf, when non-nil, maps a job's content-address hex to the
	// cluster node owning it, annotating job statuses and listings with
	// an "owner" field. Nil outside cluster mode.
	OwnerOf func(keyHex string) string
}

// NewHandler is Handler with explicit transport options.
func NewHandler(s *scheduler.Scheduler, opt Options) http.Handler {
	if opt.MaxBody <= 0 {
		opt.MaxBody = 1 << 20
	}
	a := &api{s: s, maxBody: opt.MaxBody, cluster: opt.Cluster, ownerOf: opt.OwnerOf}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", a.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", a.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", a.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", a.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.handleEvents)
	mux.HandleFunc("POST /v1/batch", a.handleBatchSubmit)
	mux.HandleFunc("POST /batch", a.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batch/{id}", a.handleBatchStatus)
	mux.HandleFunc("GET /v1/batch/{id}/result", a.handleBatchResult)
	mux.HandleFunc("GET /v1/batch/{id}/events", a.handleBatchEvents)
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, workloads.Names())
	})
	mux.HandleFunc("GET /v1/traces", a.handleTraces)
	mux.HandleFunc("GET /v1/stats", a.handleStats)
	mux.HandleFunc("GET /v1/healthz", a.handleHealthz)
	mux.HandleFunc("GET /healthz", a.handleHealthz)
	mux.HandleFunc("GET /jobs", a.handleJobsOverview)
	return mux
}

// api binds the handlers to one scheduler.
type api struct {
	s       *scheduler.Scheduler
	maxBody int64
	cluster func() any
	ownerOf func(keyHex string) string
}

// annotateOwner fills the status's Owner field from the cluster ring
// (no-op outside cluster mode).
func (a *api) annotateOwner(st *scheduler.JobStatus) {
	if a.ownerOf != nil {
		st.Owner = a.ownerOf(st.Key)
	}
}

// clusterDoc returns the embedded cluster section (nil outside cluster
// mode, which omits the JSON field).
func (a *api) clusterDoc() any {
	if a.cluster == nil {
		return nil
	}
	return a.cluster()
}

// errorDoc is the uniform error body. ValidDesigns is populated only
// when the error is an unknown-design rejection, so clients can
// enumerate what the server accepts without a second request.
type errorDoc struct {
	Error        string   `json:"error"`
	ValidDesigns []string `json:"valid_designs,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorDoc{Error: err.Error()})
}

// writeSubmitError maps a submission rejection to a status code. An
// unknown design is semantically invalid rather than malformed, so it
// gets 422 with the accepted design list; everything else is a 400.
func writeSubmitError(w http.ResponseWriter, err error) {
	var ude *system.UnknownDesignError
	if errors.As(err, &ude) {
		writeJSON(w, http.StatusUnprocessableEntity,
			errorDoc{Error: ude.Error(), ValidDesigns: ude.Valid})
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// writeQueueFull surfaces backpressure: 429 with the scheduler's
// adaptive Retry-After hint (queue depth × recent mean job duration,
// clamped), rounded up to whole seconds.
func (a *api) writeQueueFull(w http.ResponseWriter, err error) {
	secs := int(math.Ceil(a.s.RetryAfterHint().Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, err)
}

// decodeBody decodes one submission body into v under the body-size
// cap, writing the error response itself on failure: 413 for oversized
// bodies, 400 for everything undecodable. Submission handlers must
// never 500 on input, however malformed.
func (a *api) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, a.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%s exceeds the %d-byte body limit", what, tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
		return false
	}
	return true
}

func (a *api) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec scheduler.JobSpec
	if !a.decodeBody(w, r, "job spec", &spec) {
		return
	}
	job, err := a.s.Submit(spec)
	switch {
	case errors.Is(err, scheduler.ErrQueueFull):
		a.writeQueueFull(w, err)
		return
	case errors.Is(err, scheduler.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, store.ErrTraceQuarantined):
		// The named bytes are proven corrupt; retrying cannot help.
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	case err != nil:
		writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if job.State().Terminal() {
		code = http.StatusOK // cache hit: already complete
	}
	st := job.Status()
	a.annotateOwner(&st)
	writeJSON(w, code, st)
}

func (a *api) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.jobSummaries())
}

// jobSummaries lists every job's status with the result payload
// stripped (listings stay small; fetch results per job).
func (a *api) jobSummaries() []scheduler.JobStatus {
	jobs := a.s.Jobs()
	out := make([]scheduler.JobStatus, len(jobs))
	for i, j := range jobs {
		st := j.Status()
		st.Result = nil
		a.annotateOwner(&st)
		out[i] = st
	}
	return out
}

func (a *api) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := a.s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	st := job.Status()
	a.annotateOwner(&st)
	writeJSON(w, http.StatusOK, st)
}

func (a *api) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := a.s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	st := job.Status()
	if len(st.Result) == 0 {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; no result yet", job.ID, st.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(st.Result)
}

// sseWriter prepares w for Server-Sent Events and returns the flusher,
// or nil when the connection cannot stream.
func sseWriter(w http.ResponseWriter) http.Flusher {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl
}

// writeSSE emits one event; payload marshal failures degrade to an
// inline error object rather than killing the stream.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, data any) {
	body, err := json.Marshal(data)
	if err != nil {
		body = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, body)
	fl.Flush()
}

// handleEvents streams the job's progress as SSE: the full history is
// replayed first, then live events follow until the job finishes or the
// client disconnects. Piggybacked jobs stream their leader's progress.
// A client that cannot keep up receives "lagged" events counting what
// it missed instead of back-pressuring the simulation.
func (a *api) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := a.s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	fl := sseWriter(w)
	if fl == nil {
		return
	}
	ch, unsub := job.ProgressTarget().Subscribe()
	defer unsub()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // terminal event delivered; stream complete
			}
			writeSSE(w, fl, ev.Type, ev.Data)
		case <-r.Context().Done():
			return
		}
	}
}

func (a *api) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var spec scheduler.BatchSpec
	if !a.decodeBody(w, r, "batch spec", &spec) {
		return
	}
	b, err := a.s.SubmitBatch(spec)
	switch {
	case errors.Is(err, scheduler.ErrQueueFull):
		a.writeQueueFull(w, err)
		return
	case errors.Is(err, scheduler.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, store.ErrTraceQuarantined):
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	case err != nil:
		writeSubmitError(w, err)
		return
	}
	st := b.Status()
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK // every cell was already cached
	}
	writeJSON(w, code, st)
}

func (a *api) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	b, ok := a.s.Batch(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such batch %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, b.Status())
}

func (a *api) handleBatchResult(w http.ResponseWriter, r *http.Request) {
	b, ok := a.s.Batch(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such batch %q", r.PathValue("id")))
		return
	}
	doc, err := b.ResultDoc()
	if err != nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("batch %s is %s; no matrix document yet", b.ID, b.State()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// batchEventDoc is the SSE payload of multiplexed batch events: the
// cell's matrix position wrapping the original event payload.
type batchEventDoc struct {
	Cell     int    `json:"cell"`
	Design   string `json:"design"`
	Workload string `json:"workload,omitempty"`
	Trace    string `json:"trace,omitempty"`
	Data     any    `json:"data"`
}

// handleBatchEvents streams a batch's event log — atomic or routed
// alike — onto one SSE connection: each cell event keeps its type and
// gains the cell's matrix position, a subscriber that overflowed gets a
// "lagged" marker at cell -1, and the final "batch" event carries the
// terminal batch status. A routed cell re-run after a peer death may
// repeat events: consumers see a superset, never a gap.
func (a *api) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b, ok := a.s.Batch(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such batch %q", r.PathValue("id")))
		return
	}
	fl := sseWriter(w)
	if fl == nil {
		return
	}
	ch, unsub := b.Subscribe()
	defer unsub()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // final event delivered; stream complete
			}
			if ev.Event.Type == "batch" {
				writeSSE(w, fl, "batch", ev.Event.Data)
				continue
			}
			writeSSE(w, fl, ev.Event.Type, batchEventDoc{
				Cell: ev.Cell, Design: ev.Design, Workload: ev.Workload,
				Trace: ev.Trace, Data: ev.Event.Data,
			})
		case <-r.Context().Done():
			return
		}
	}
}

func (a *api) handleTraces(w http.ResponseWriter, r *http.Request) {
	reg := a.s.Traces()
	doc := struct {
		Enabled bool              `json:"enabled"`
		Traces  []store.TraceInfo `json:"traces"`
	}{Enabled: reg.Enabled(), Traces: []store.TraceInfo{}}
	if reg.Enabled() {
		list, err := reg.List()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if list != nil {
			doc.Traces = list
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// counters is the shared block of engine counters exposed by /v1/stats,
// /healthz, and /jobs: queue depth, cache stats, sims-run, rejected.
type counters struct {
	Queued   int            `json:"queued"`
	QueueCap int            `json:"queue_cap"`
	SimsRun  uint64         `json:"sims_run"`
	Rejected uint64         `json:"rejected"`
	Cache    map[string]any `json:"cache"`
	// Robustness counters: every recovered fault leaves a trail here,
	// so "the process survived" is observable, not just asserted.
	PanicsRecovered   uint64 `json:"panics_recovered"`
	IndexQuarantined  uint64 `json:"index_quarantined"`
	TracesQuarantined uint64 `json:"traces_quarantined"`
}

func (a *api) counters() counters {
	queued, capn := a.s.QueueDepth()
	cs := a.s.CacheStats()
	return counters{
		Queued:   queued,
		QueueCap: capn,
		SimsRun:  a.s.SimsRun(),
		Rejected: a.s.Rejected(),
		Cache: map[string]any{
			"hits": cs.Hits, "misses": cs.Misses, "dedups": cs.Dedups,
			"evictions": cs.Evictions, "expirations": cs.Expirations,
			"entries": cs.Entries,
		},
		PanicsRecovered:   a.s.PanicsRecovered(),
		IndexQuarantined:  a.s.IndexQuarantines(),
		TracesQuarantined: a.s.TraceQuarantines(),
	}
}

// statsDoc is the GET /v1/stats body.
type statsDoc struct {
	Workers int `json:"workers"`
	counters
	Jobs       int                     `json:"jobs"`
	Batches    int                     `json:"batches"`
	StatesById map[scheduler.State]int `json:"job_states"`
	Cluster    any                     `json:"cluster,omitempty"`
}

func (a *api) handleStats(w http.ResponseWriter, r *http.Request) {
	states := make(map[scheduler.State]int)
	for _, j := range a.s.Jobs() {
		states[j.State()]++
	}
	writeJSON(w, http.StatusOK, statsDoc{
		Workers:    a.s.Workers(),
		counters:   a.counters(),
		Jobs:       totalJobs(states),
		Batches:    len(a.s.Batches()),
		StatesById: states,
		Cluster:    a.clusterDoc(),
	})
}

// healthDoc is the GET /healthz body: liveness plus the counters an
// operator or load balancer wants in one probe, and — in cluster
// mode — the ring/peer/forwarding section.
type healthDoc struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	counters
	Cluster any `json:"cluster,omitempty"`
}

func (a *api) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthDoc{
		Status:   "ok",
		Workers:  a.s.Workers(),
		counters: a.counters(),
		Cluster:  a.clusterDoc(),
	})
}

// jobsOverviewDoc is the GET /jobs body: the counters plus per-job
// summaries (results stripped, owners annotated in cluster mode).
type jobsOverviewDoc struct {
	counters
	Jobs    []scheduler.JobStatus `json:"jobs"`
	Cluster any                   `json:"cluster,omitempty"`
}

func (a *api) handleJobsOverview(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, jobsOverviewDoc{
		counters: a.counters(),
		Jobs:     a.jobSummaries(),
		Cluster:  a.clusterDoc(),
	})
}

func totalJobs(states map[scheduler.State]int) int {
	n := 0
	for _, c := range states {
		n += c
	}
	return n
}
