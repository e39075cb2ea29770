package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ndpext/internal/client"
	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
)

// TestForwardToOwner: a submission POSTed to a non-owner is forwarded
// to the ring owner, runs there exactly once, and the accepting node
// proxies status, result, and the SSE stream so the client never needs
// to know which peer ran its job.
func TestForwardToOwner(t *testing.T) {
	nodes := newTestCluster(t, 3, scheduler.Options{})
	spec := scheduler.JobSpec{Workload: "pr", Seed: 7, Accesses: 1000}
	owner, other := ownerIndex(t, nodes, spec)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(nodes[other].URL, testClientOptions())

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Owner != nodes[owner].URL {
		t.Errorf("submission owner = %q, want %q", st.Owner, nodes[owner].URL)
	}

	// The SSE stream proxied through the accepting node must end with
	// the terminal event.
	var last string
	for ev := range cl.Events(ctx, st.ID) {
		last = ev.Type
	}
	if last != string(scheduler.StateDone) {
		t.Fatalf("proxied stream ended with %q, want done", last)
	}

	final, err := cl.Await(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != scheduler.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	doc, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) == 0 || !json.Valid(doc) {
		t.Fatalf("proxied result document invalid: %q", doc)
	}

	// The simulation ran on the owner, not the accepting node.
	if got := nodes[owner].Sched.SimsRun(); got != 1 {
		t.Errorf("owner sims_run = %d, want 1", got)
	}
	if got := nodes[other].Sched.SimsRun(); got != 0 {
		t.Errorf("accepting node sims_run = %d, want 0", got)
	}
	if got := nodes[other].Node.Info().ForwardsOut; got == 0 {
		t.Error("accepting node recorded no outgoing forwards")
	}
}

// TestSubmitToOwnerRunsLocally: the owner itself takes the fast path —
// no forwarding round trip.
func TestSubmitToOwnerRunsLocally(t *testing.T) {
	nodes := newTestCluster(t, 3, scheduler.Options{})
	spec := scheduler.JobSpec{Workload: "pr", Seed: 11, Accesses: 1000}
	owner, _ := ownerIndex(t, nodes, spec)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(nodes[owner].URL, testClientOptions())
	final, err := cl.SubmitAndAwait(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != scheduler.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if got := nodes[owner].Node.Info().ForwardsOut; got != 0 {
		t.Errorf("owner forwarded its own key (%d forwards)", got)
	}
	if got := nodes[owner].Sched.SimsRun(); got != 1 {
		t.Errorf("owner sims_run = %d, want 1", got)
	}
}

// TestForwardedQueueFull: the owner's 429 is its verdict. A submission
// forwarded to an owner whose queue is full gets the owner's 429 and
// Retry-After hint back at once, after exactly one forwarded submit.
func TestForwardedQueueFull(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hold := func(scheduler.JobSpec) {
		once.Do(func() { close(started) })
		<-release
	}
	nodes := newTestCluster(t, 2, scheduler.Options{Workers: 1, QueueDepth: 1, SimHook: hold})
	defer close(release) // before the cleanup drains the held worker

	// Three specs with one owner: the first holds the owner's worker,
	// the second fills its queue, the third is forwarded to it.
	byOwner := map[int][]scheduler.JobSpec{}
	var owner, other int
	for seed := uint64(1); len(byOwner[owner]) < 3; seed++ {
		spec := scheduler.JobSpec{Workload: "pr", Seed: seed, Accesses: 1000}
		o, x := ownerIndex(t, nodes, spec)
		byOwner[o] = append(byOwner[o], spec)
		owner, other = o, x
	}
	specs := byOwner[owner]
	if _, err := nodes[owner].Sched.Submit(specs[0]); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := nodes[owner].Sched.Submit(specs[1]); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(specs[2])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nodes[other].URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("forwarded submission to a full owner = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("relayed 429 carries no Retry-After header")
	}
	if got := nodes[owner].Node.Info().ForwardsIn; got != 1 {
		t.Errorf("owner saw %d forwarded submits, want 1", got)
	}
}

// TestBatchCellWaitsOutFullOwner: a batch cell whose owner's queue is
// full waits out the owner's Retry-After, as a cell on the accepting
// node waits out its own queue, and completes once the owner frees up.
// The owner's worker is held and its one queue slot filled until the
// cell's forwards have met the full queue as many times as the
// forwarding client makes attempts; then the worker is released.
func TestBatchCellWaitsOutFullOwner(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once, releaseOnce sync.Once
	hold := func(scheduler.JobSpec) {
		once.Do(func() { close(started) })
		<-release
	}
	free := func() { releaseOnce.Do(func() { close(release) }) }
	nodes := newTestCluster(t, 2, scheduler.Options{Workers: 1, QueueDepth: 1, SimHook: hold})
	defer free() // before the cleanup drains the held worker

	// Three NDPExt pr cells with one owner: the first holds the owner's
	// worker, the second fills its queue, the third is the batch's cell.
	byOwner := map[int][]scheduler.JobSpec{}
	var owner, other int
	for seed := uint64(1); len(byOwner[owner]) < 3; seed++ {
		spec := scheduler.JobSpec{Workload: "pr", Design: "NDPExt", Seed: seed, Accesses: 1000}
		o, x := ownerIndex(t, nodes, spec)
		byOwner[o] = append(byOwner[o], spec)
		owner, other = o, x
	}
	specs := byOwner[owner]

	// Room for the rejections the test waits for and a few more; any
	// beyond are dropped, never blocking the owner's handler.
	rejected := make(chan struct{}, 16)
	nodes[owner].wrap(func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			if rec.Code == http.StatusTooManyRequests {
				select {
				case rejected <- struct{}{}:
				default:
				}
			}
		})
	})

	if _, err := nodes[owner].Sched.Submit(specs[0]); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := nodes[owner].Sched.Submit(specs[1]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New(nodes[other].URL, testClientOptions())
	base := specs[2]
	base.Workload, base.Design = "", ""
	bst, err := cl.SubmitBatch(ctx, scheduler.BatchSpec{
		Designs: []string{"NDPExt"}, Workloads: []string{"pr"}, Base: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < testClientOptions().MaxAttempts; i++ {
		select {
		case <-rejected:
		case <-ctx.Done():
			t.Fatalf("owner rejected the cell %d times before the deadline", i)
		}
	}
	free()

	final, err := cl.AwaitBatch(ctx, bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != scheduler.StateDone {
		t.Fatalf("batch ended %s: %+v", final.State, final.Cells)
	}
}

// TestReplicationToSuccessor: a completed result is pushed to the next
// routable peer on the ring, so a later owner death does not cold-start
// the entry — and a submission hitting the replica holder is served
// from its store without forwarding.
func TestReplicationToSuccessor(t *testing.T) {
	nodes := newTestCluster(t, 3, scheduler.Options{})
	spec := scheduler.JobSpec{Workload: "pr", Seed: 3, Accesses: 1000}
	owner, _ := ownerIndex(t, nodes, spec)
	key, err := nodes[0].Sched.KeyFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The owner replicates to the first ring candidate that is not
	// itself.
	var target *testNode
	for _, cand := range nodes[owner].Node.Ring().Candidates(key, len(nodes)) {
		if cand != nodes[owner].URL {
			for _, tn := range nodes {
				if tn.URL == cand {
					target = tn
				}
			}
			break
		}
	}
	if target == nil {
		t.Fatal("no replication target found")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(nodes[owner].URL, testClientOptions())
	if _, err := cl.SubmitAndAwait(ctx, spec); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, "replica to land on the successor", func() bool {
		return target.Sched.Cached(key)
	})
	if got := target.Node.Info().ReplicationsIn; got != 1 {
		t.Errorf("target replications_in = %d, want 1", got)
	}
	waitFor(t, 10*time.Second, "owner to count the push", func() bool {
		return nodes[owner].Node.Info().ReplicationsOut == 1
	})

	// The replica holder serves the key from its own store: no second
	// simulation anywhere, no forward.
	before := nodes[owner].Sched.SimsRun()
	st, err := client.New(target.URL, testClientOptions()).Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Errorf("replica holder did not serve from cache: %+v", st.State)
	}
	if got := target.Sched.SimsRun(); got != 0 {
		t.Errorf("replica holder ran %d sims, want 0", got)
	}
	if got := nodes[owner].Sched.SimsRun(); got != before {
		t.Errorf("owner re-ran the cell (%d -> %d sims)", before, got)
	}
}

// TestClusterBatchMatchesSingleNode: the tentpole acceptance criterion.
// A design×workload matrix fanned out across three nodes must produce a
// result document byte-identical to the same matrix on one standalone
// scheduler, and shared cells must not run twice anywhere.
func TestClusterBatchMatchesSingleNode(t *testing.T) {
	spec := scheduler.BatchSpec{
		Designs:   []string{"Host", "Nexus", "NDPExt"},
		Workloads: []string{"pr", "hotspot"},
		Base:      scheduler.JobSpec{Seed: 5, Accesses: 1000},
	}

	// Golden run: one standalone scheduler, no cluster anywhere.
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := scheduler.New(st, nil, scheduler.Options{})
	single.Start()
	defer single.Drain(context.Background())
	sb, err := single.SubmitBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-sb.Done()
	golden, err := sb.ResultDoc()
	if err != nil {
		t.Fatal(err)
	}

	// Cluster run: same matrix through an arbitrary accepting node.
	nodes := newTestCluster(t, 3, scheduler.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New(nodes[0].URL, testClientOptions())
	bst, err := cl.SubmitBatch(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if bst.ID == "" {
		t.Fatal("cluster batch has no ID")
	}
	final, err := cl.AwaitBatch(ctx, bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != scheduler.StateDone {
		t.Fatalf("cluster batch ended %s: %+v", final.State, final.Cells)
	}
	doc, err := cl.BatchResult(ctx, bst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, golden) {
		t.Errorf("cluster matrix document differs from single-node golden:\ncluster: %s\ngolden:  %s", doc, golden)
	}

	// Every unique cell simulated exactly once across the whole cluster.
	total := uint64(0)
	for _, tn := range nodes {
		total += tn.Sched.SimsRun()
	}
	if want := uint64(len(spec.Designs) * len(spec.Workloads)); total != want {
		t.Errorf("cluster ran %d sims for %d unique cells", total, want)
	}
}

// TestClusterBatchSSE: the accepting node multiplexes every cell's
// events — local and proxied — onto one stream, ending with the
// terminal "batch" event. The same spec on a standalone scheduler must
// stream the same shape: both kinds of batch share one event log, so
// each carries exactly one terminal event per cell and ends with
// "batch".
func TestClusterBatchSSE(t *testing.T) {
	nodes := newTestCluster(t, 3, scheduler.Options{})
	_, single := newSingleNode(t)
	spec := scheduler.BatchSpec{
		Designs:   []string{"Host", "NDPExt"},
		Workloads: []string{"pr"},
		Base:      scheduler.JobSpec{Seed: 9, Accesses: 1000},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, base := range []string{nodes[1].URL, single} {
		cl := client.New(base, testClientOptions())
		bst, err := cl.SubmitBatch(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}

		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/v1/batch/"+bst.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: batch events status %d", bst.ID, resp.StatusCode)
		}
		types, cells := scanSSE(t, resp)
		resp.Body.Close()
		if len(types) == 0 || types[len(types)-1] != "batch" {
			t.Fatalf("%s: stream did not end with the batch event: %v", bst.ID, types)
		}
		terminal := make([]int, 2)
		for i, typ := range types {
			if scheduler.State(typ).Terminal() {
				if cells[i] < 0 || cells[i] >= len(terminal) {
					t.Fatalf("%s: terminal event for out-of-range cell %d", bst.ID, cells[i])
				}
				terminal[cells[i]]++
			}
		}
		for cell, n := range terminal {
			if n != 1 {
				t.Errorf("%s: cell %d has %d terminal events, want 1 (types: %v)", bst.ID, cell, n, types)
			}
		}
	}
}

// TestUnknownDesign422 runs the transport suite's submission-error
// cases against a cluster node as one more target: a job or batch naming
// an unknown design must get the single node's 422 with the accepted
// design list, and a draining node the single node's 503 — same status,
// same body.
func TestUnknownDesign422(t *testing.T) {
	nodes := newTestCluster(t, 3, scheduler.Options{})
	singleSched, single := newSingleNode(t)

	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	same := func(path, body string, want int) {
		t.Helper()
		code, doc := post(single+path, body)
		if code != want {
			t.Fatalf("single node POST %s = %d, want %d: %s", path, code, want, doc)
		}
		ccode, cdoc := post(nodes[0].URL+path, body)
		if ccode != code || cdoc != doc {
			t.Errorf("cluster POST %s = %d %s\nsingle node = %d %s", path, ccode, cdoc, code, doc)
		}
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs", `{"workload":"pr","design":"bogus"}`},
		{"/v1/batch", `{"designs":["bogus"],"workloads":["pr"]}`},
		{"/batch", `{"designs":["bogus"],"workloads":["pr"]}`},
	} {
		same(c.path, c.body, http.StatusUnprocessableEntity)
		if _, doc := post(nodes[0].URL+c.path, c.body); !strings.Contains(doc, "NDPExt-MAB") {
			t.Errorf("cluster POST %s: body lacks valid_designs: %s", c.path, doc)
		}
	}

	singleSched.Drain(context.Background())
	nodes[0].Sched.Drain(context.Background())
	same("/v1/batch", `{"designs":["NDPExt"],"workloads":["pr"]}`, http.StatusServiceUnavailable)
}

// scanSSE reads one SSE response to completion, returning the event
// types in order and, for each, the payload's cell index (-1 when the
// payload has none).
func scanSSE(t *testing.T, resp *http.Response) (types []string, cells []int) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var typ string
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		s := string(line)
		switch {
		case len(s) > 7 && s[:7] == "event: ":
			typ = s[7:]
		case len(s) > 6 && s[:6] == "data: ":
			var payload struct {
				Cell *int `json:"cell"`
			}
			cell := -1
			if json.Unmarshal([]byte(s[6:]), &payload) == nil && payload.Cell != nil {
				cell = *payload.Cell
			}
			types = append(types, typ)
			cells = append(cells, cell)
		}
	}
	return types, cells
}

// TestClusterObservability: /v1/healthz and /jobs carry the cluster
// section, /v1/cluster serves the full document, and job listings are
// annotated with owners.
func TestClusterObservability(t *testing.T) {
	nodes := newTestCluster(t, 3, scheduler.Options{})
	spec := scheduler.JobSpec{Workload: "pr", Seed: 13, Accesses: 1000}
	_, other := ownerIndex(t, nodes, spec)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(nodes[other].URL, testClientOptions())
	if _, err := cl.SubmitAndAwait(ctx, spec); err != nil {
		t.Fatal(err)
	}

	var health struct {
		Cluster struct {
			Self        string `json:"self"`
			RingSize    int    `json:"ring_size"`
			ForwardsOut uint64 `json:"forwards_out"`
			Peers       []struct {
				URL   string `json:"url"`
				State string `json:"state"`
			} `json:"peers"`
		} `json:"cluster"`
	}
	getJSON(t, nodes[other].URL+"/v1/healthz", &health)
	if health.Cluster.Self != nodes[other].URL {
		t.Errorf("healthz cluster.self = %q, want %q", health.Cluster.Self, nodes[other].URL)
	}
	if health.Cluster.RingSize != 3*16 {
		t.Errorf("healthz cluster.ring_size = %d, want 48", health.Cluster.RingSize)
	}
	if len(health.Cluster.Peers) != 3 {
		t.Errorf("healthz cluster.peers has %d entries, want 3", len(health.Cluster.Peers))
	}
	if health.Cluster.ForwardsOut == 0 {
		t.Error("healthz cluster.forwards_out = 0 after a forwarded job")
	}

	// /jobs annotates each job with its owning node.
	var overview struct {
		Jobs []struct {
			Owner string `json:"owner"`
		} `json:"jobs"`
		Cluster any `json:"cluster"`
	}
	owner, _ := ownerIndex(t, nodes, spec)
	getJSON(t, nodes[owner].URL+"/jobs", &overview)
	if len(overview.Jobs) == 0 {
		t.Fatal("owner lists no jobs")
	}
	if got := overview.Jobs[0].Owner; got != nodes[owner].URL {
		t.Errorf("/jobs owner = %q, want %q", got, nodes[owner].URL)
	}
	if overview.Cluster == nil {
		t.Error("/jobs is missing the cluster section")
	}

	// The dedicated cluster document.
	var info struct {
		Self    string `json:"self"`
		MaxHops int    `json:"max_hops"`
	}
	getJSON(t, nodes[0].URL+"/v1/cluster", &info)
	if info.Self != nodes[0].URL || info.MaxHops != 2 {
		t.Errorf("GET /v1/cluster = %+v", info)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
