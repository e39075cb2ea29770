// Command ndpserve exposes the simulator as a long-running HTTP/JSON
// service: submit jobs or whole design×workload batch matrices, poll
// status, stream live progress over SSE, and share results through a
// content-addressed cache that survives restarts.
//
// The process is thin wiring of the three serving layers:
// internal/server/store (result store + trace registry),
// internal/server/scheduler (queue, worker pool, batch DAG), and
// internal/server/transport (HTTP/JSON/SSE).
//
// Usage:
//
//	ndpserve [-addr :8080] [-workers N] [-queue 64]
//	         [-cache-entries 1024] [-cache-ttl 0]
//	         [-cache-index /path/to/index.json]
//	         [-max-wall 0] [-max-cycles 0]
//	         [-retry-after 1s] [-retry-after-max 60s]
//	         [-max-body 1048576] [-read-header-timeout 10s]
//	         [-peers URL,URL,... -self URL] [-vnodes 64] [-max-hops 2]
//	         [-probe-interval 2s] [-down-after 3] [-replicate=true]
//
// With -peers (a static member list that must be identical on every
// node and contain -self), the process joins an ndpserve cluster: a
// consistent-hash ring routes each content-addressed submission to its
// owning peer, any node accepts work for the whole service, batch
// matrices fan out across the ring, and completed results replicate to
// the ring successor so one peer death loses no finished work.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops, queued
// and running jobs finish (running ones are checkpointed if -drain-wait
// expires), and the cache index is persisted for a warm restart.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ndpext/internal/cluster"
	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
	"ndpext/internal/server/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ndpserve: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "queued-job bound before 429 backpressure")
	cacheEntries := flag.Int("cache-entries", 1024, "result cache capacity (LRU)")
	cacheTTL := flag.Duration("cache-ttl", 0, "result cache entry lifetime (0: never expires)")
	cacheIndex := flag.String("cache-index", "", "persist the cache index here on drain; warm-load it on start")
	maxWall := flag.Duration("max-wall", 0, "default deadline of a job that sets no deadline_ms; truncates it, never keys it (0 disables)")
	maxCycles := flag.Int64("max-cycles", 0, "default per-job simulated-cycle watchdog (0 disables)")
	retryAfter := flag.Duration("retry-after", time.Second, "floor of the adaptive Retry-After hint returned with 429")
	retryAfterMax := flag.Duration("retry-after-max", 60*time.Second, "ceiling of the adaptive Retry-After hint")
	traceDir := flag.String("trace-dir", "", "directory of recorded trace files; enables trace-backed jobs (\"trace\" in the job spec)")
	drainWait := flag.Duration("drain-wait", 30*time.Second, "grace period for running jobs on shutdown before checkpointing")
	maxBody := flag.Int64("max-body", 1<<20, "request body size cap in bytes (oversized submissions get 413)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "slow-loris guard: deadline for reading request headers")
	peers := flag.String("peers", "", "comma-separated cluster member URLs (identical on every node; must include -self); empty runs single-node")
	self := flag.String("self", "", "this node's advertised base URL within -peers")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per peer on the consistent-hash ring")
	maxHops := flag.Int("max-hops", 2, "forwarding-chain bound before a node runs a submission locally")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "cluster health-probe period")
	downAfter := flag.Int("down-after", 3, "consecutive failed probes before a peer is down (ownership moves to its successor)")
	replicate := flag.Bool("replicate", true, "replicate completed results to the ring successor")
	flag.Parse()

	st, err := store.Open(store.Options{
		Entries: *cacheEntries,
		TTL:     *cacheTTL,
		Path:    *cacheIndex,
	})
	if err != nil {
		log.Fatal(err)
	}

	// In cluster mode the node is built first: the scheduler needs its
	// per-node job-ID prefix and its replication hook.
	var node *cluster.Node
	if *peers != "" {
		node, err = cluster.NewNode(cluster.Config{
			Self:        *self,
			Peers:       strings.Split(*peers, ","),
			VNodes:      *vnodes,
			MaxHops:     *maxHops,
			NoReplicate: !*replicate,
			Membership: cluster.MembershipOptions{
				ProbeInterval: *probeInterval,
				DownAfter:     *downAfter,
				Logf:          log.Printf,
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	schedOpt := scheduler.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		RetryAfter:    *retryAfter,
		RetryAfterMax: *retryAfterMax,
		MaxWall:       *maxWall,
		MaxCycles:     *maxCycles,
	}
	if node != nil {
		schedOpt.IDPrefix = node.IDPrefix()
		schedOpt.OnStored = node.OnStored
	}
	sched := scheduler.New(st, store.NewTraceRegistry(*traceDir), schedOpt)
	sched.Start()
	if n := st.Stats().Entries; n > 0 {
		log.Printf("warm-loaded %d cached results from %s", n, *cacheIndex)
	}

	topt := transport.Options{MaxBody: *maxBody}
	if node != nil {
		topt.Cluster = node.InfoDoc
		topt.OwnerOf = node.OwnerOf
	}
	var handler http.Handler = transport.NewHandler(sched, topt)
	if node != nil {
		node.Bind(sched)
		handler = cluster.NewHandler(node, handler)
		node.Start()
		log.Printf("cluster mode: self=%s ring=%d peers, %d vnodes", *self, node.Ring().Size(), node.Ring().VNodes())
	}

	// No WriteTimeout: SSE streams are long-lived by design. Body size is
	// capped per-request by the transport layer instead.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("signal received; draining (grace %v)", *drainWait)

	// Stop the listener first so no new submissions race the drain, then
	// let the engine finish or checkpoint every accepted job.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	drainCtx, cancel2 := context.WithTimeout(context.Background(), *drainWait)
	defer cancel2()
	if err := sched.Drain(drainCtx); err != nil {
		log.Fatal(err)
	}
	if node != nil {
		// After the drain: final completions replicate; then the prober
		// and any in-flight pushes stop.
		node.Close()
	}
	if *cacheIndex != "" {
		log.Printf("cache index persisted to %s (%d entries)", *cacheIndex, st.Stats().Entries)
	}
	log.Printf("drained cleanly")
}
