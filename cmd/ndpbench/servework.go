package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"ndpext/internal/client"
	"ndpext/internal/cluster"
	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
	"ndpext/internal/server/transport"
)

// serve-cluster runs three ndpserve nodes in this process, wired exactly
// as cmd/ndpserve wires them with its default flags, on loopback
// listeners: GOMAXPROCS workers and the default store per node. With one
// worker per node, a batch whose two fresh cells hash to one owner would
// run them one after the other, so a session's time would depend on its
// seed.
//
// The traffic is not chosen by the benchmark: one closed-loop client
// repeats the one scripted serving sequence the repository has that mixes
// single jobs, batches and cache hits, the "Batch matrix submission" step
// of the CI serve-smoke job, submitting to node 0. That step is a single
// script waiting for each reply, so there is one client. A session, with
// a fresh seed:
//
//  1. submits NDPExt×pr and Nexus×bfs singly, each followed over SSE and
//     then fetched, as ndpsubmit -follow does;
//  2. submits the matrix {NDPExt, Nexus} × {pr, bfs} that overlaps them,
//     so two cells are served from the cache and two simulate;
//  3. resubmits each of the four cells singly: cache hits whose documents
//     must equal the matrix's cells byte for byte.
//
// That is 2 cold singles, 1 batch and 4 hits per session. Jobs simulate
// 4000 accesses per core, as in that step.
const serveNodeCount = 3

var (
	serveDesigns   = []string{"NDPExt", "Nexus"}
	serveWorkloads = []string{"pr", "bfs"}
)

const opTimeout = 2 * time.Minute

type serveNode struct {
	url    string
	node   *cluster.Node
	sched  *scheduler.Scheduler
	srv    *http.Server
	served chan error // Serve's return value
}

type serveCluster struct {
	nodes []*serveNode
}

// startCluster boots the nodes. Listeners open first, because every
// node's ring needs every peer's URL.
func startCluster() (*serveCluster, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < serveNodeCount; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	c := &serveCluster{}
	for i, ln := range lns {
		n, err := startNode(urls[i], urls, ln)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

func startNode(self string, peers []string, ln net.Listener) (*serveNode, error) {
	node, err := cluster.NewNode(cluster.Config{Self: self, Peers: peers})
	if err != nil {
		return nil, err
	}
	st, err := store.Open(store.Options{})
	if err != nil {
		return nil, err
	}
	sched := scheduler.New(st, nil, scheduler.Options{
		IDPrefix: node.IDPrefix(),
		OnStored: node.OnStored,
	})
	sched.Start()
	node.Bind(sched)
	h := cluster.NewHandler(node, transport.NewHandler(sched, transport.Options{
		Cluster: node.InfoDoc,
		OwnerOf: node.OwnerOf,
	}))
	node.Start()
	n := &serveNode{
		url: self, node: node, sched: sched,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// stop shuts every node down and waits for its server, prober and
// workers to exit.
func (c *serveCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		if err := n.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ndpbench: shutdown", n.url, err)
		}
		<-n.served
		n.node.Close()
		if err := n.sched.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ndpbench: drain", n.url, err)
		}
	}
}

// serveLoad is the client side of serve-cluster: every result document
// seen, for the correctness checks.
type serveLoad struct {
	c        *serveCluster
	cl       *client.Client
	httpc    *http.Client
	local    string // node 0's job-ID prefix: jobs node 0 ran or served itself
	accesses int
	scale    float64
	seed     uint64 // the last workload seed used

	docs     map[string][]byte // key -> first result document seen
	coldKeys map[string]bool   // keys submitted fresh; each must simulate exactly once
}

// opRecord is one completed client operation.
type opRecord struct {
	kind      string // "cold", "hit" or "batch"
	ms        float64
	forwarded bool    // hits: served by a peer through node 0
	accesses  float64 // accesses the operation simulated
}

func newServeLoad(c *serveCluster, o runOpts) *serveLoad {
	// One connection: the client issues one request at a time.
	httpc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &serveLoad{
		c:        c,
		cl:       client.New(c.nodes[0].url, client.Options{PollInterval: 5 * time.Millisecond, HTTPClient: httpc}),
		httpc:    httpc,
		local:    c.nodes[0].node.IDPrefix(),
		accesses: o.size.serveAccesses,
		scale:    o.size.mult,
		docs:     map[string][]byte{},
		coldKeys: map[string]bool{},
		seed:     o.seed * 1_000_000,
	}
}

// nextSeed returns a workload seed no earlier job used.
func (l *serveLoad) nextSeed() uint64 {
	l.seed++
	return l.seed
}

func (l *serveLoad) close() {
	l.httpc.CloseIdleConnections()
	l.c.stop()
}

// setupServe boots a cluster and completes its first job, a session's
// first single, so that lazy set-up (connections, generator tables) is
// done before the window.
func setupServe(o runOpts) (*serveLoad, error) {
	c, err := startCluster()
	if err != nil {
		return nil, err
	}
	l := newServeLoad(c, o)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if _, err := l.cold(ctx, l.spec(serveDesigns[0], serveWorkloads[0], l.nextSeed()), nil); err != nil {
		l.close()
		return nil, fmt.Errorf("first job: %w", err)
	}
	return l, nil
}

// spec is the job spec of a design and workload in the session with the
// given seed.
func (l *serveLoad) spec(design, workload string, seed uint64) scheduler.JobSpec {
	return scheduler.JobSpec{Workload: workload, Design: design, Seed: seed, Accesses: l.accesses, Scale: l.scale}
}

// session runs the sequence described at the top of this file once, with
// a fresh seed, and hands each completed or failed operation to done. It
// stops at the first failure.
func (l *serveLoad) session(t *tracer, done func(opRecord, error)) {
	run := func(op func(context.Context) (opRecord, error)) bool {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		rec, err := op(ctx)
		done(rec, err)
		return err == nil
	}
	seed := l.nextSeed()
	for i := range serveDesigns {
		spec := l.spec(serveDesigns[i], serveWorkloads[i], seed)
		if !run(func(ctx context.Context) (opRecord, error) { return l.cold(ctx, spec, t) }) {
			return
		}
	}
	if !run(func(ctx context.Context) (opRecord, error) { return l.batch(ctx, seed, t) }) {
		return
	}
	for _, d := range serveDesigns {
		for _, w := range serveWorkloads {
			spec := l.spec(d, w, seed)
			if !run(func(ctx context.Context) (opRecord, error) { return l.hit(ctx, spec, t) }) {
				return
			}
		}
	}
}

// keyFor times node 0's content addressing of spec, in traced windows.
func (l *serveLoad) keyFor(spec scheduler.JobSpec, t *tracer, parent int) {
	if t == nil {
		return
	}
	id := t.begin("scheduler.KeyFor", "", parent)
	_, _ = l.c.nodes[0].sched.KeyFor(spec) // an invalid spec fails at Submit too
	t.end(id)
}

// cold submits a fresh spec, follows it over SSE to its terminal event
// and fetches its result.
func (l *serveLoad) cold(ctx context.Context, spec scheduler.JobSpec, t *tracer) (opRecord, error) {
	rec := opRecord{kind: "cold"}
	start := time.Now()
	op := t.begin("op.cold", "", 0)
	defer t.end(op)
	l.keyFor(spec, t, op)
	id := t.begin("client.Submit", "", op)
	st, err := l.cl.Submit(ctx, spec)
	t.end(id)
	if err != nil {
		return rec, err
	}
	if st.CacheHit {
		return rec, errors.New("a fresh spec was served from the cache")
	}
	var fin scheduler.JobStatus
	var doneAt time.Time
	id = t.begin("client.Events", st.ID, op)
	for ev := range l.cl.Events(ctx, st.ID) {
		if scheduler.State(ev.Type).Terminal() {
			doneAt = time.Now()
			if err := json.Unmarshal(ev.Data, &fin); err != nil {
				return rec, fmt.Errorf("terminal event: %w", err)
			}
		}
	}
	t.end(id)
	if doneAt.IsZero() {
		return rec, errors.New("event stream ended without a terminal event")
	}
	if fin.State != scheduler.StateDone {
		return rec, fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
	}
	id = t.begin("client.Result", st.ID, op)
	doc, err := l.cl.Result(ctx, st.ID)
	t.end(id)
	if err != nil {
		return rec, err
	}
	rec.ms = msSince(start)
	if fin.StartedAt != nil && fin.FinishedAt != nil {
		// Server-side phases from the owner's timestamps.
		t.record("scheduler.queue", st.ID, op, fin.CreatedAt, *fin.StartedAt)
		t.record("scheduler.run", st.ID, op, *fin.StartedAt, *fin.FinishedAt)
		t.record("sse.done_lag", st.ID, op, *fin.FinishedAt, doneAt)
	}
	rec.accesses, err = accessesOf(doc)
	if err != nil {
		return rec, err
	}
	if l.coldKeys[st.Key] {
		return rec, fmt.Errorf("fresh spec repeated key %s", st.Key)
	}
	l.coldKeys[st.Key] = true
	l.docs[st.Key] = doc
	return rec, nil
}

// hit resubmits a completed spec, which must be a cache hit whose
// document is byte-equal to the first one served for its key.
func (l *serveLoad) hit(ctx context.Context, spec scheduler.JobSpec, t *tracer) (opRecord, error) {
	rec := opRecord{kind: "hit"}
	start := time.Now()
	op := t.begin("op.hit", "", 0)
	defer t.end(op)
	l.keyFor(spec, t, op)
	id := t.begin("client.Submit", "", op)
	st, err := l.cl.Submit(ctx, spec)
	t.end(id)
	if err != nil {
		return rec, err
	}
	if !st.State.Terminal() || !st.CacheHit {
		return rec, fmt.Errorf("resubmitted spec was not a cache hit (job %s %s)", st.ID, st.State)
	}
	id = t.begin("client.Result", st.ID, op)
	doc, err := l.cl.Result(ctx, st.ID)
	t.end(id)
	if err != nil {
		return rec, err
	}
	rec.ms = msSince(start)
	rec.forwarded = !strings.HasPrefix(st.ID, l.local)
	want := l.docs[st.Key]
	if !bytes.Equal(doc, want) {
		return rec, fmt.Errorf("cached document for key %s differs from the first one served", st.Key)
	}
	return rec, nil
}

// batch submits the session's design × workload matrix and waits for its
// matrix document. Cells already run singly must carry the singles'
// documents byte for byte; the others are fresh.
func (l *serveLoad) batch(ctx context.Context, seed uint64, t *tracer) (opRecord, error) {
	rec := opRecord{kind: "batch"}
	spec := scheduler.BatchSpec{
		Designs:   serveDesigns,
		Workloads: serveWorkloads,
		Base:      l.spec("", "", seed),
	}
	cells := len(serveDesigns) * len(serveWorkloads)
	start := time.Now()
	op := t.begin("op.batch", "", 0)
	defer t.end(op)
	id := t.begin("client.SubmitBatch", "", op)
	b, err := l.cl.SubmitBatch(ctx, spec)
	t.end(id)
	if err != nil {
		return rec, err
	}
	id = t.begin("client.AwaitBatch", b.ID, op)
	fin, err := l.cl.AwaitBatch(ctx, b.ID)
	t.end(id)
	if err != nil {
		return rec, err
	}
	id = t.begin("client.BatchResult", b.ID, op)
	doc, err := l.cl.BatchResult(ctx, b.ID)
	t.end(id)
	if err != nil {
		return rec, err
	}
	rec.ms = msSince(start)
	var matrix scheduler.BatchResultDoc
	if err := json.Unmarshal(doc, &matrix); err != nil {
		return rec, fmt.Errorf("batch document: %w", err)
	}
	if len(fin.Cells) != cells || len(matrix.Cells) != cells {
		return rec, fmt.Errorf("batch %s has %d cells, document %d, want %d", b.ID, len(fin.Cells), len(matrix.Cells), cells)
	}
	for _, c := range matrix.Cells {
		if c.State != scheduler.StateDone {
			return rec, fmt.Errorf("batch %s cell %s/%s ended %s: %s", b.ID, c.Design, c.Workload, c.State, c.Error)
		}
		if want, ok := l.docs[c.Key]; ok {
			if !bytes.Equal(c.Result, want) {
				return rec, fmt.Errorf("batch %s cell %s/%s differs from the single job's document", b.ID, c.Design, c.Workload)
			}
			continue
		}
		n, err := accessesOf(c.Result)
		if err != nil {
			return rec, err
		}
		rec.accesses += n
		l.coldKeys[c.Key] = true
		l.docs[c.Key] = c.Result
	}
	return rec, nil
}

// accessesOf reads the simulated access count of a result document.
func accessesOf(doc []byte) (float64, error) {
	var d struct {
		Accesses uint64 `json:"accesses"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, fmt.Errorf("result document: %w", err)
	}
	if d.Accesses == 0 {
		return 0, errors.New("result document simulated no accesses")
	}
	return float64(d.Accesses), nil
}

// window repeats sessions until d has passed and finishes the session in
// flight, so every window runs the sessions' exact mix. Cutting a session
// short would make ops_per_s depend on where the cut fell: its four hits
// take milliseconds, its other operations seconds. It returns the
// completed operations and the time until the last one finished.
func (l *serveLoad) window(d time.Duration, t *tracer, r *report) ([]opRecord, time.Duration) {
	var recs []opRecord
	start := time.Now()
	for time.Since(start) < d {
		l.session(t, func(rec opRecord, err error) {
			r.op("serve "+rec.kind, err)
			if err == nil {
				recs = append(recs, rec)
			}
		})
	}
	return recs, time.Since(start)
}

// runServe runs serve-cluster: set-up repeated for setup_s, a timed
// window of o.seconds, with o.trace a traced window, and the cluster-wide
// accounting check.
func runServe(o runOpts) *report {
	r := newReport()
	var l *serveLoad
	var setupS []float64
	setupStart := time.Now()
	for rep := 0; rep < o.size.setupReps || (time.Since(setupStart) < o.size.setupMin && rep < maxSetupReps); rep++ {
		if l != nil {
			l.close()
			l = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		l, err = setupServe(o)
		if err != nil {
			return r.abort("setup", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer l.close()
	r.metrics["setup_s"] = median(setupS)

	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	recs, elapsed := l.window(o.seconds, nil, r)
	runtime.ReadMemStats(&mem1)
	r.passes = 1
	opsPerS := float64(len(recs)) / elapsed.Seconds()
	r.metrics["ops_per_s"] = opsPerS
	r.metrics["host.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	byKind := map[string][]float64{}
	for _, rec := range recs {
		byKind[rec.kind] = append(byKind[rec.kind], rec.ms)
	}
	// The end-to-end latency is the time to a fresh simulation result, as
	// on the simulation workloads: the cold singles' median.
	r.metrics["latency_ms_p50"] = median(byKind["cold"])
	r.metrics["latency.samples"] = float64(len(byKind["cold"]))
	r.metrics["hit_job_ms_p50"] = median(byKind["hit"])
	r.metrics["batch_ms_p50"] = median(byKind["batch"])
	r.metrics["serve.hit_jobs"] = float64(len(byKind["hit"]))
	r.metrics["serve.batches"] = float64(len(byKind["batch"]))

	if o.trace {
		tracedServeWindow(o, r, l, opsPerS)
	}

	var sims, hits, lookups, rejected float64
	for _, n := range l.c.nodes {
		sims += float64(n.sched.SimsRun())
		cs := n.sched.CacheStats()
		hits += float64(cs.Hits)
		lookups += float64(cs.Hits + cs.Misses)
		rejected += float64(n.sched.Rejected())
	}
	keys := float64(len(l.coldKeys))
	r.metrics["store.hit_ratio"] = ratio(hits, lookups)
	r.metrics["scheduler.sims_per_key"] = ratio(sims, keys)
	r.metrics["transport.rejected"] = rejected
	var err error
	if sims != keys {
		err = fmt.Errorf("nodes ran %v simulations for %v distinct fresh keys", sims, keys)
	}
	r.op("cluster accounting", err)
	r.metrics["peak_rss_mb"] = peakRSSMB()
	return r
}

// tracedServeWindow runs one more window with spans and a CPU profile
// and derives the serving path's per-layer metrics from them.
func tracedServeWindow(o runOpts, r *report, l *serveLoad, timedOpsPerS float64) {
	t := newTracer()
	var recs []opRecord
	var elapsed time.Duration
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	prof, cpu, err := profileCPU(func() {
		recs, elapsed = l.window(o.seconds, t, r)
	})
	runtime.ReadMemStats(&mem1)
	if err != nil {
		r.op("profile", err)
		return
	}
	var accesses float64
	var local, forwarded []float64
	for _, rec := range recs {
		accesses += rec.accesses
		if rec.kind != "hit" {
			continue
		}
		if rec.forwarded {
			forwarded = append(forwarded, rec.ms)
		} else {
			local = append(local, rec.ms)
		}
	}
	if len(recs) > 0 {
		r.metrics["tracing_overhead_pct"] = (timedOpsPerS/(float64(len(recs))/elapsed.Seconds()) - 1) * 100
	}
	r.metrics["host.alloc_bytes_per_access"] = ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc), accesses)
	r.op("profile", attributeCPU(r, prof, cpu, accesses, 0, ms(elapsed)))
	r.metrics["client.submit_ms_p50"] = median(t.durationsMS("client.Submit"))
	r.metrics["transport.result_ms_p50"] = median(t.durationsMS("client.Result"))
	if len(local) > 0 && len(forwarded) > 0 {
		r.metrics["cluster.forward_hop_ms_p50"] = median(forwarded) - median(local)
	}
	r.metrics["cluster.forwarded_frac"] = ratio(float64(len(forwarded)), float64(len(forwarded)+len(local)))
	r.metrics["scheduler.queue_wait_ms_p50"] = median(t.durationsMS("scheduler.queue"))
	r.metrics["scheduler.run_ms_p50"] = median(t.durationsMS("scheduler.run"))
	r.metrics["sse.done_lag_ms_p50"] = median(t.durationsMS("sse.done_lag"))
	r.metrics["simcache.key_us_p50"] = median(t.durationsMS("scheduler.KeyFor")) * 1e3
	r.op("write trace", writeTraceFiles(o, t, prof))
}
