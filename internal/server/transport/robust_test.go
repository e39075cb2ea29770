package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
	"ndpext/internal/system"
	"ndpext/internal/trace"
	"ndpext/internal/workloads"
)

// writeTransportTrace writes a small valid trace file into dir.
func writeTransportTrace(t *testing.T, dir, name string) {
	t.Helper()
	gen, err := workloads.Get("pr")
	if err != nil {
		t.Fatal(err)
	}
	sc := workloads.DefaultScale()
	sc.AccessesPerCore = 100
	tr, err := gen(system.DefaultConfig(system.NDPExt).NumUnits(), 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(dir+"/"+name, tr); err != nil {
		t.Fatal(err)
	}
}

// newTestStackOpts is newTestStack with transport options and an
// optional trace directory.
func newTestStackOpts(t *testing.T, sopt scheduler.Options, topt Options, traceDir string) (*scheduler.Scheduler, *httptest.Server) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var reg *store.TraceRegistry
	if traceDir != "" {
		reg = store.NewTraceRegistry(traceDir)
	}
	s := scheduler.New(st, reg, sopt)
	s.Start()
	srv := httptest.NewServer(NewHandler(s, topt))
	t.Cleanup(func() {
		srv.Close()
		s.Drain(context.Background())
	})
	return s, srv
}

// TestMalformedSubmissions: whatever garbage arrives at the submission
// endpoints, the answer is a 4xx with a JSON error body — never a 500,
// never a connection-killing panic.
func TestMalformedSubmissions(t *testing.T) {
	_, srv := newTestStack(t, scheduler.Options{Workers: 1, QueueDepth: 4})

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"not json", "/v1/jobs", `this is not json`, http.StatusBadRequest},
		{"empty body", "/v1/jobs", ``, http.StatusBadRequest},
		{"json array", "/v1/jobs", `[1,2,3]`, http.StatusBadRequest},
		{"unknown field", "/v1/jobs", `{"workload":"pr","bogus":true}`, http.StatusBadRequest},
		{"wrong type", "/v1/jobs", `{"workload":"pr","accesses":"many"}`, http.StatusBadRequest},
		{"negative accesses", "/v1/jobs", `{"workload":"pr","accesses":-5}`, http.StatusBadRequest},
		{"negative scale", "/v1/jobs", `{"workload":"pr","scale":-1}`, http.StatusBadRequest},
		{"negative epoch_cycles", "/v1/jobs", `{"workload":"pr","epoch_cycles":-1}`, http.StatusBadRequest},
		{"negative deadline", "/v1/jobs", `{"workload":"pr","deadline_ms":-100}`, http.StatusBadRequest},
		{"string deadline", "/v1/jobs", `{"workload":"pr","deadline_ms":"soon"}`, http.StatusBadRequest},
		{"removed max_wall_ms", "/v1/jobs", `{"workload":"pr","max_wall_ms":1000}`, http.StatusBadRequest},
		{"unknown workload", "/v1/jobs", `{"workload":"nope"}`, http.StatusBadRequest},
		{"unknown mem", "/v1/jobs", `{"workload":"pr","mem":"ddr"}`, http.StatusBadRequest},
		{"workload and trace", "/v1/jobs", `{"workload":"pr","trace":"t.ndptrc"}`, http.StatusBadRequest},
		{"trace escape", "/v1/jobs", `{"trace":"../../etc/passwd"}`, http.StatusBadRequest},
		{"batch not json", "/v1/batch", `{{{{`, http.StatusBadRequest},
		{"batch unknown field", "/v1/batch", `{"designs":["NDPExt"],"workloads":["pr"],"oops":1}`, http.StatusBadRequest},
		{"batch no designs", "/v1/batch", `{"designs":[],"workloads":["pr"]}`, http.StatusBadRequest},
		{"batch negative dims", "/v1/batch", `{"designs":["NDPExt"],"workloads":["pr"],"base":{"accesses":-1}}`, http.StatusBadRequest},
		{"batch bad deadline", "/v1/batch", `{"designs":["NDPExt"],"workloads":["pr"],"base":{"deadline_ms":-1}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, srv.URL+tc.path, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Fatalf("POST %s %q returned %d — malformed input must never 5xx", tc.path, tc.body, resp.StatusCode)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("POST %s %q = %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if doc.Error == "" {
				t.Error("error body missing the diagnostic")
			}
		})
	}
}

// FuzzSubmitBody: arbitrary submission bodies must map to clean 4xx/2xx
// responses, never a 5xx.
func FuzzSubmitBody(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `not json`, `[{}]`, `{"workload":`, "\x00\xff\xfe",
		`{"workload":"pr","deadline_ms":-9223372036854775808}`,
		"{\"trace\":\"\x00\"}", `{"workload":"pr","accesses":1e99}`,
	} {
		f.Add(seed)
	}
	st, err := store.Open(store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	s := scheduler.New(st, nil, scheduler.Options{Workers: 1, QueueDepth: 2})
	// Deliberately not Started: admission (decode, validate, key, queue)
	// is the surface under test; nothing needs to simulate.
	h := NewHandler(s, Options{})
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("body %q produced %d", body, rec.Code)
		}
	})
}

// TestMaxBodyLimit: submission bodies over the cap get 413 with a JSON
// error, on both endpoints; just-under-cap bodies decode normally.
func TestMaxBodyLimit(t *testing.T) {
	_, srv := newTestStackOpts(t, scheduler.Options{Workers: 1, QueueDepth: 4},
		Options{MaxBody: 512}, "")

	huge := fmt.Sprintf(`{"workload":"pr","faults":%q}`, strings.Repeat("x", 4096))
	for _, path := range []string{"/v1/jobs", "/v1/batch"} {
		resp := postJSON(t, srv.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s = %d, want 413", path, resp.StatusCode)
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Error == "" {
			t.Errorf("413 body not a JSON error doc (err %v, doc %+v)", err, doc)
		}
		resp.Body.Close()
	}

	// A small legitimate body still works under the tightened cap.
	resp := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","accesses":1000}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Errorf("small POST under cap = %d, want 202/200", resp.StatusCode)
	}
}

// TestQuarantinedTrace422: a submission naming a quarantined digest is
// rejected with 422 — a terminal "this input is bad", distinct from the
// retryable 4xx/5xx family the client backs off on.
func TestQuarantinedTrace422(t *testing.T) {
	dir := t.TempDir()
	s, srv := newTestStackOpts(t, scheduler.Options{Workers: 1, QueueDepth: 4},
		Options{}, dir)
	writeTransportTrace(t, dir, "t.ndptrc")
	if d := s.Traces().Quarantine("t.ndptrc", errors.New("chunk 0: CRC mismatch")); d == "" {
		t.Fatal("quarantine failed to mark the digest")
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/jobs", `{"trace":"t.ndptrc"}`},
		{"/v1/batch", `{"designs":["NDPExt"],"traces":["t.ndptrc"]}`},
	} {
		resp := postJSON(t, srv.URL+tc.path, tc.body)
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("POST %s quarantined trace = %d, want 422 (%s)", tc.path, resp.StatusCode, doc.Error)
		}
		if !strings.Contains(doc.Error, "quarantined") {
			t.Errorf("422 body does not say quarantined: %q", doc.Error)
		}
	}
}

// TestHealthzRobustnessCounters: /healthz carries the recovered-fault
// counters, and a worker panic shows up there.
func TestHealthzRobustnessCounters(t *testing.T) {
	_, srv := newTestStackOpts(t, scheduler.Options{
		Workers: 1, QueueDepth: 4,
		SimHook: func(spec scheduler.JobSpec) {
			if spec.Seed == 666 {
				panic("chaos: injected panic")
			}
		},
	}, Options{}, "")

	var health struct {
		Status            string `json:"status"`
		PanicsRecovered   uint64 `json:"panics_recovered"`
		IndexQuarantined  uint64 `json:"index_quarantined"`
		TracesQuarantined uint64 `json:"traces_quarantined"`
	}
	if err := json.Unmarshal(getBody(t, srv.URL+"/healthz", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.PanicsRecovered != 0 {
		t.Fatalf("fresh healthz = %+v", health)
	}

	resp := postJSON(t, srv.URL+"/v1/jobs", `{"workload":"pr","seed":666,"accesses":1000}`)
	st := decode[scheduler.JobStatus](t, resp)
	final := pollJobDone(t, srv.URL, st.ID)
	if final.State != scheduler.StateFailed {
		t.Fatalf("poison job state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "injected panic") {
		t.Errorf("poison job error = %q", final.Error)
	}

	if err := json.Unmarshal(getBody(t, srv.URL+"/healthz", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status after panic = %q — the process must stay healthy", health.Status)
	}
	if health.PanicsRecovered != 1 {
		t.Errorf("panics_recovered = %d, want 1", health.PanicsRecovered)
	}
}
