package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
)

func newTestStack(t *testing.T, opt scheduler.Options) (*scheduler.Scheduler, *httptest.Server) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := scheduler.New(st, nil, opt)
	s.Start()
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Drain(context.Background())
	})
	return s, srv
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// compact canonicalizes JSON bytes: wire.WriteJSON re-indents embedded
// RawMessage payloads, so byte comparisons happen on the compact form.
func compact(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getBody(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

func pollJobDone(t *testing.T, base, id string) scheduler.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decode[scheduler.JobStatus](t, resp)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return scheduler.JobStatus{}
}

// TestHTTPSurface walks the single-job API end to end: submit, poll,
// fetch the result, and hit the cache on resubmission.
func TestHTTPSurface(t *testing.T) {
	_, srv := newTestStack(t, scheduler.Options{Workers: 2, QueueDepth: 8})

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","accesses":1000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	st := decode[scheduler.JobStatus](t, resp)
	if st.ID == "" || st.Key == "" {
		t.Fatalf("submit response missing id/key: %+v", st)
	}
	// Defaults are echoed normalized.
	if st.Spec.Seed != 1 || st.Spec.Design != "NDPExt" {
		t.Errorf("spec not normalized in response: %+v", st.Spec)
	}

	final := pollJobDone(t, srv.URL, st.ID)
	if final.State != scheduler.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	doc := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/result", http.StatusOK)
	var res struct {
		SchemaVersion int    `json:"schema_version"`
		Design        string `json:"design"`
	}
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}
	if res.SchemaVersion != 1 || res.Design != "NDPExt" {
		t.Errorf("result doc header = %+v", res)
	}

	// Identical resubmission: 200 with the cached result inline.
	resp = postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","accesses":1000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit = %d, want 200", resp.StatusCode)
	}
	dup := decode[scheduler.JobStatus](t, resp)
	if !dup.CacheHit || !bytes.Equal(compact(t, dup.Result), compact(t, doc)) {
		t.Errorf("cached submit: cache_hit=%v, result bytes differ", dup.CacheHit)
	}

	// Listings strip results.
	var list []scheduler.JobStatus
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/jobs", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list))
	}
	for _, j := range list {
		if len(j.Result) != 0 {
			t.Error("listing inlines result payloads")
		}
	}

	// Error paths.
	for body, want := range map[string]int{
		`{"workload":"nope"}`: http.StatusBadRequest,
		`{"bogus_field":1}`:   http.StatusBadRequest,
		`not json`:            http.StatusBadRequest,
	} {
		resp := postJSON(t, srv.URL+"/v1/jobs", body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("submit %q = %d, want %d", body, resp.StatusCode, want)
		}
	}
	getBody(t, srv.URL+"/v1/jobs/j-999999", http.StatusNotFound)
	getBody(t, srv.URL+"/v1/batch/b-999999", http.StatusNotFound)

	var names []string
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/workloads", http.StatusOK), &names); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		found = found || n == "pr"
	}
	if !found {
		t.Errorf("workloads listing %v misses pr", names)
	}

	// Traces are disabled on this stack and say so.
	var traces struct {
		Enabled bool              `json:"enabled"`
		Traces  []store.TraceInfo `json:"traces"`
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/traces", http.StatusOK), &traces); err != nil {
		t.Fatal(err)
	}
	if traces.Enabled || traces.Traces == nil || len(traces.Traces) != 0 {
		t.Errorf("disabled trace registry doc = %+v", traces)
	}
}

// observability is the shared counter block asserted on /v1/stats,
// /healthz, and /jobs.
type observability struct {
	Status   string         `json:"status"`
	Workers  int            `json:"workers"`
	Queued   int            `json:"queued"`
	QueueCap int            `json:"queue_cap"`
	SimsRun  uint64         `json:"sims_run"`
	Rejected uint64         `json:"rejected"`
	Cache    map[string]any `json:"cache"`
}

// TestObservabilityEndpoints checks /healthz, /jobs, and /v1/stats
// expose queue depth, cache stats, sims-run, and rejected counters.
func TestObservabilityEndpoints(t *testing.T) {
	_, srv := newTestStack(t, scheduler.Options{Workers: 3, QueueDepth: 5})

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","accesses":1000}`)
	st := decode[scheduler.JobStatus](t, resp)
	pollJobDone(t, srv.URL, st.ID)
	postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","accesses":1000}`).Body.Close()

	for _, path := range []string{"/healthz", "/v1/healthz"} {
		var h observability
		if err := json.Unmarshal(getBody(t, srv.URL+path, http.StatusOK), &h); err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" || h.Workers != 3 || h.QueueCap != 5 {
			t.Errorf("%s = %+v", path, h)
		}
		if h.SimsRun != 1 {
			t.Errorf("%s sims_run = %d, want 1", path, h.SimsRun)
		}
		if h.Cache["hits"] == nil || h.Cache["entries"] == nil {
			t.Errorf("%s cache block incomplete: %v", path, h.Cache)
		}
	}

	var jo struct {
		observability
		Jobs []scheduler.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/jobs", http.StatusOK), &jo); err != nil {
		t.Fatal(err)
	}
	if len(jo.Jobs) != 2 || jo.SimsRun != 1 {
		t.Errorf("/jobs overview: %d jobs, sims_run %d", len(jo.Jobs), jo.SimsRun)
	}

	var stats struct {
		observability
		Jobs      int                     `json:"jobs"`
		Batches   int                     `json:"batches"`
		JobStates map[scheduler.State]int `json:"job_states"`
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/stats", http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 2 || stats.JobStates[scheduler.StateDone] != 2 {
		t.Errorf("/v1/stats = %+v", stats)
	}
}

// TestQueueFullRetryAfter drives the server into backpressure and
// checks the 429 carries the adaptive Retry-After hint (the configured
// floor, with no completed-job durations to scale it).
func TestQueueFullRetryAfter(t *testing.T) {
	// The first simulation pins the single worker in SimHook until the
	// test ends; cleanups run last-registered first, so the release
	// comes before the stack's drain.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	_, srv := newTestStack(t, scheduler.Options{
		Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second,
		SimHook: func(scheduler.JobSpec) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		},
	})
	t.Cleanup(func() { close(release) })

	postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","accesses":100,"scale":0.1}`).Body.Close()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("first job never reached the worker")
	}
	// Fill the single queue slot, then overflow.
	postJSON(t, srv.URL+"/v1/jobs", `{"workload":"bfs","accesses":100,"scale":0.1}`).Body.Close()
	resp := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"cc","accesses":1000}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want %q (the floor: no duration samples yet)", got, "7")
	}

	// An oversized batch bounces with the same hint.
	resp = postJSON(t, srv.URL+"/v1/batch",
		`{"designs":["NDPExt","Nexus"],"workloads":["mv"],"base":{"accesses":1000}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow batch = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("batch Retry-After = %q, want %q", got, "7")
	}
}

// readSSE consumes one SSE stream, returning event types in order.
func readSSE(t *testing.T, resp *http.Response, stopAt func(string) bool) []string {
	t.Helper()
	defer resp.Body.Close()
	var types []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, ev)
			if stopAt(ev) {
				return types
			}
		}
	}
	return types
}

// TestSSEStreamsEpochEvents follows a job's event stream and checks the
// replay-then-follow contract delivers state, epoch, and terminal
// events over HTTP.
func TestSSEStreamsEpochEvents(t *testing.T) {
	_, srv := newTestStack(t, scheduler.Options{Workers: 1, QueueDepth: 4})

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","accesses":5000,"epoch_cycles":50000}`)
	st := decode[scheduler.JobStatus](t, resp)

	stream, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	types := readSSE(t, stream, func(ev string) bool { return ev == "done" || ev == "failed" })
	var epochs int
	for _, ty := range types {
		if ty == "epoch" {
			epochs++
		}
	}
	if epochs == 0 || types[len(types)-1] != "done" {
		t.Errorf("stream = %v, want epoch events then done", types)
	}
}

// TestBatchHTTP submits a matrix over the wire, follows the multiplexed
// stream, and checks the canonical matrix document's cells are
// byte-identical to individually-fetched job results.
func TestBatchHTTP(t *testing.T) {
	_, srv := newTestStack(t, scheduler.Options{Workers: 4, QueueDepth: 16})

	body := `{"designs":["NDPExt","Nexus"],"workloads":["pr","bfs"],"base":{"seed":1,"accesses":1000}}`
	resp := postJSON(t, srv.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d, want 202", resp.StatusCode)
	}
	bst := decode[scheduler.BatchStatus](t, resp)
	if bst.ID == "" || len(bst.Cells) != 4 {
		t.Fatalf("batch status = %+v", bst)
	}

	// Multiplexed SSE runs until the terminal "batch" event.
	stream, err := http.Get(srv.URL + "/v1/batch/" + bst.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	types := readSSE(t, stream, func(ev string) bool { return ev == "batch" })
	if len(types) == 0 || types[len(types)-1] != "batch" {
		t.Fatalf("batch stream = %v, want trailing batch event", types)
	}

	// Terminal now: status shows done, the matrix document renders.
	var final scheduler.BatchStatus
	if err := json.Unmarshal(getBody(t, srv.URL+"/v1/batch/"+bst.ID, http.StatusOK), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != scheduler.StateDone || final.Pending != 0 {
		t.Fatalf("final batch status = %+v", final)
	}
	matrix := getBody(t, srv.URL+"/v1/batch/"+bst.ID+"/result", http.StatusOK)
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Cells         []struct {
			Design   string          `json:"design"`
			Workload string          `json:"workload"`
			State    scheduler.State `json:"state"`
			Result   json.RawMessage `json:"result"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(matrix, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != 1 || len(doc.Cells) != 4 {
		t.Fatalf("matrix doc: schema %d, %d cells", doc.SchemaVersion, len(doc.Cells))
	}
	for _, cell := range doc.Cells {
		single := postJSON(t, srv.URL+"/v1/jobs",
			fmt.Sprintf(`{"design":%q,"workload":%q,"seed":1,"accesses":1000}`, cell.Design, cell.Workload))
		if single.StatusCode != http.StatusOK {
			t.Fatalf("cell %s/%s resubmit = %d, want 200 (cached)", cell.Design, cell.Workload, single.StatusCode)
		}
		js := decode[scheduler.JobStatus](t, single)
		if !bytes.Equal(compact(t, js.Result), compact(t, cell.Result)) {
			t.Errorf("cell %s/%s: matrix bytes differ from the single-submission document", cell.Design, cell.Workload)
		}
	}

	// The legacy /batch alias accepts the same body (fully cached now).
	resp = postJSON(t, srv.URL+"/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/batch alias = %d, want 200 for a fully-cached matrix", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed matrices are 400s.
	for _, bad := range []string{
		`{"workloads":["pr"]}`,
		`{"designs":["NDPExt"]}`,
		`{"designs":["NDPExt"],"workloads":["pr"],"base":{"workload":"bfs"}}`,
		`{"designs":["NDPExt"],"workloads":["pr"],"bogus":1}`,
	} {
		resp := postJSON(t, srv.URL+"/v1/batch", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q = %d, want 400", bad, resp.StatusCode)
		}
	}
}
