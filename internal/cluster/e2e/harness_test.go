package e2e

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ndpext/internal/client"
	"ndpext/internal/cluster"
	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/store"
	"ndpext/internal/server/transport"
)

// swapHandler lets the harness start listeners (to learn their URLs)
// before the nodes that need those URLs exist.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not wired yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testNode is one fully wired cluster member.
type testNode struct {
	URL   string
	Node  *cluster.Node
	Sched *scheduler.Scheduler
	Srv   *httptest.Server
}

// Kill force-closes every connection (active SSE streams included) and
// the listener — the closest httptest gets to a process death.
func (tn *testNode) Kill() {
	tn.Srv.CloseClientConnections()
	tn.Srv.Close()
}

// testClientOptions keeps forwarding failover fast under test.
func testClientOptions() client.Options {
	return client.Options{
		MaxAttempts:  2,
		BaseDelay:    10 * time.Millisecond,
		MaxDelay:     50 * time.Millisecond,
		PollInterval: 10 * time.Millisecond,
	}
}

// newTestCluster boots n wired nodes sharing one static peer list,
// exactly as cmd/ndpserve composes the layers. schedOpt tweaks the
// per-node scheduler (workers, queue depth); zero values take scheduler
// defaults.
func newTestCluster(t *testing.T, n int, schedOpt scheduler.Options) []*testNode {
	t.Helper()
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	nodes := make([]*testNode, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		urls[i] = srv.URL
		nodes[i] = &testNode{URL: srv.URL, Srv: srv}
	}
	for i := range nodes {
		node, err := cluster.NewNode(cluster.Config{
			Self:   urls[i],
			Peers:  urls,
			VNodes: 16,
			Membership: cluster.MembershipOptions{
				ProbeInterval: 100 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
				DownAfter:     2,
			},
			Client: testClientOptions(),
			Logf:   t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt := schedOpt
		opt.IDPrefix = node.IDPrefix()
		opt.OnStored = node.OnStored
		sched := scheduler.New(st, nil, opt)
		sched.Start()
		node.Bind(sched)
		inner := transport.NewHandler(sched, transport.Options{
			Cluster: node.InfoDoc,
			OwnerOf: node.OwnerOf,
		})
		swaps[i].set(cluster.NewHandler(node, inner))
		node.Start()
		nodes[i].Node = node
		nodes[i].Sched = sched
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.Node.Close()
			tn.Srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			tn.Sched.Drain(ctx)
			cancel()
		}
	})
	return nodes
}

// newSingleNode serves one standalone scheduler through the plain
// transport handler — no cluster anywhere — as the single-node
// reference the cluster's answers are compared against.
func newSingleNode(t *testing.T) (*scheduler.Scheduler, string) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := scheduler.New(st, nil, scheduler.Options{})
	sched.Start()
	srv := httptest.NewServer(transport.NewHandler(sched, transport.Options{}))
	t.Cleanup(func() {
		srv.Close()
		sched.Drain(context.Background())
	})
	return sched, srv.URL
}

// ownerIndex returns which node owns spec's key, plus the key hex, plus
// the index of some other node (the accepting non-owner).
func ownerIndex(t *testing.T, nodes []*testNode, spec scheduler.JobSpec) (owner, other int) {
	t.Helper()
	key, err := nodes[0].Sched.KeyFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	ownerURL := nodes[0].Node.Ring().Owner(key)
	owner, other = -1, -1
	for i, tn := range nodes {
		if tn.URL == ownerURL {
			owner = i
		} else if other == -1 {
			other = i
		}
	}
	if owner == -1 || other == -1 {
		t.Fatalf("could not split owner/other for %s among %d nodes", ownerURL, len(nodes))
	}
	return owner, other
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}
