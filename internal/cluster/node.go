package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ndpext/internal/client"
	"ndpext/internal/server/scheduler"
	"ndpext/internal/simcache"
)

// HopHeader counts how many times a submission has been forwarded
// between peers. A request arriving with HopHeader >= MaxHops is run
// locally instead of forwarded again, so divergent membership views can
// never orbit a job around the ring.
const HopHeader = "X-Ndpext-Hops"

// Config wires one cluster node. Self and Peers are the only required
// fields; Peers must contain Self and be identical (as a set) on every
// node — the ring is computed locally and must agree everywhere.
type Config struct {
	// Self is this node's advertised base URL, e.g. "http://10.0.0.1:8080".
	Self string
	// Peers is the full static member list, Self included.
	Peers []string
	// VNodes is the virtual-node count per peer; default DefaultVNodes.
	VNodes int
	// MaxHops bounds forwarding chains; default 2 (client -> accepting
	// node -> owner -> successor is the longest legitimate path).
	MaxHops int
	// Replicate enables pushing freshly stored results to the ring
	// successor. Default true; NoReplicate turns it off.
	NoReplicate bool
	// Membership tunes the health prober.
	Membership MembershipOptions
	// Client is the base options for forwarding clients (attempts,
	// backoff, transport). Headers is overwritten per forward with the
	// hop count.
	Client client.Options
	// Logf receives operational lines (forward failures, re-routes);
	// default silent.
	Logf func(format string, args ...any)
}

// Node is one member of an ndpserve cluster: the ring, the membership
// view, the forwarding/replication counters, and the cell router of
// routed batches. It wraps a scheduler (bound with Bind) and is exposed
// over HTTP by NewHandler.
type Node struct {
	cfg     Config
	ring    *Ring
	members *Membership
	sched   *scheduler.Scheduler

	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	routes map[string]string // forwarded job ID -> owner URL at submit time

	forwardsIn      atomic.Uint64 // submissions that arrived already forwarded
	forwardsOut     atomic.Uint64 // submissions this node forwarded to an owner
	replicationsIn  atomic.Uint64 // replicated documents accepted into the store
	replicationsOut atomic.Uint64 // documents pushed to a successor
	cellsOwned      atomic.Uint64 // jobs accepted for local execution via the cluster layer
}

// NewNode builds the ring and membership for cfg. Call Bind with the
// local scheduler before serving, Start to begin probing.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	members, err := NewMembership(cfg.Self, ring.Peers(), cfg.Membership)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Node{
		cfg:     cfg,
		ring:    ring,
		members: members,
		baseCtx: ctx,
		cancel:  cancel,
		routes:  make(map[string]string),
	}, nil
}

// Bind attaches the local scheduler. The scheduler should be built with
// Options.OnStored = node.OnStored so completions replicate.
func (n *Node) Bind(s *scheduler.Scheduler) { n.sched = s }

// Ring returns the node's consistent-hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// Members returns the node's membership view.
func (n *Node) Members() *Membership { return n.members }

// Start launches the membership prober.
func (n *Node) Start() { n.members.Start() }

// Close stops probing and cancels background cell runners and
// replication pushes. Idempotent.
func (n *Node) Close() {
	n.cancel()
	n.members.Stop()
}

// IDPrefix returns the per-node job-ID prefix ("j0-", "j1-", ...):
// the node's index in the sorted peer list, so IDs are unique across
// the cluster and a proxied lookup is unambiguous.
func (n *Node) IDPrefix() string {
	for i, p := range n.ring.Peers() {
		if p == n.cfg.Self {
			return fmt.Sprintf("j%d-", i)
		}
	}
	return "j-"
}

// owner resolves key's current owner: the ring owner if routable, else
// its first routable successor. ok is false only when every peer is
// down, which cannot include self.
func (n *Node) owner(key simcache.Key) (string, bool) {
	return n.ring.OwnerAmong(key, n.members.Routable)
}

// OwnerOf is the transport hook annotating job statuses: the current
// owner of a content-address hex, or "" for an unparsable key.
func (n *Node) OwnerOf(keyHex string) string {
	key, err := simcache.ParseKey(keyHex)
	if err != nil {
		return ""
	}
	if o, ok := n.owner(key); ok {
		return o
	}
	return ""
}

// shouldRunLocally decides the routing of one keyed submission given
// the hop count it arrived with. Local wins when this node owns the
// key (directly or as acting successor), when the result is already in
// the local store (a replicated entry — no reason to forward), or when
// the hop budget is exhausted (loop guard).
func (n *Node) shouldRunLocally(key simcache.Key, hops int) (owner string, local bool) {
	owner, ok := n.owner(key)
	switch {
	case !ok || owner == n.cfg.Self:
		return n.cfg.Self, true
	case n.sched.Cached(key):
		return owner, true
	case hops >= n.cfg.MaxHops:
		n.cfg.Logf("cluster: hop limit (%d) reached for key %s; running locally", hops, key.String()[:12])
		return owner, true
	}
	return owner, false
}

// forwardClient builds a client for peer whose requests carry the given
// outgoing hop count.
func (n *Node) forwardClient(peer string, hops int) *client.Client {
	opt := n.cfg.Client
	opt.Headers = map[string]string{HopHeader: strconv.Itoa(hops)}
	if opt.MaxAttempts == 0 {
		// Forwarding should fail fast and fall to the successor, not
		// burn the full resilient-client budget on a dead peer.
		opt.MaxAttempts = 3
	}
	return client.New(peer, opt)
}

// recordRoute remembers which peer took a forwarded job so later
// status/result/events lookups proxy to it.
func (n *Node) recordRoute(jobID, peer string) {
	if jobID == "" {
		return
	}
	n.mu.Lock()
	n.routes[jobID] = peer
	n.mu.Unlock()
}

// routeFor returns the peer a forwarded job went to.
func (n *Node) routeFor(jobID string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.routes[jobID]
	return p, ok
}

// hops parses the forwarded-hop count from a request (0 when absent or
// malformed: an unparsable header is treated as a fresh submission).
func hops(r *http.Request) int {
	h, err := strconv.Atoi(r.Header.Get(HopHeader))
	if err != nil || h < 0 {
		return 0
	}
	return h
}

// OnStored is the scheduler completion hook: push the freshly stored
// document to the key's replication target so a peer death does not
// cold-start the entry. Runs on the worker goroutine, so the push is
// spawned; failures are logged and dropped — replication is an
// optimization, the owner still holds the entry.
func (n *Node) OnStored(key simcache.Key, doc []byte) {
	if n.cfg.NoReplicate {
		return
	}
	target, ok := n.replicationTarget(key)
	if !ok {
		return
	}
	go func() {
		if err := n.pushReplica(target, key, doc); err != nil {
			n.cfg.Logf("cluster: replicate %s to %s: %v", key.String()[:12], target, err)
			return
		}
		n.replicationsOut.Add(1)
	}()
}

// replicationTarget picks where key's document should be copied: the
// first routable peer in ring order that is not this node. When this
// node is the owner that is the ring successor; when this node ran the
// key as acting successor it is usually the (recovering) owner.
func (n *Node) replicationTarget(key simcache.Key) (string, bool) {
	for _, p := range n.ring.Candidates(key, len(n.ring.Peers())) {
		if p != n.cfg.Self && n.members.Routable(p) {
			return p, true
		}
	}
	return "", false
}

// pushReplica PUTs one document to a peer's replication endpoint.
func (n *Node) pushReplica(peer string, key simcache.Key, doc []byte) error {
	ctx, cancel := context.WithTimeout(n.baseCtx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		peer+"/v1/cluster/cache/"+key.String(), bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	httpc := n.cfg.Client.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: replica push to %s: status %d", peer, resp.StatusCode)
	}
	return nil
}

// acceptReplica stores a pushed document (the receiving half of
// OnStored).
func (n *Node) acceptReplica(keyHex string, doc []byte) error {
	if err := n.sched.InstallResult(keyHex, doc); err != nil {
		return err
	}
	n.replicationsIn.Add(1)
	return nil
}

// Info is the cluster section embedded in /v1/healthz, /v1/stats, and
// /jobs, and the body of GET /v1/cluster.
type Info struct {
	Self            string     `json:"self"`
	RingSize        int        `json:"ring_size"`
	VNodes          int        `json:"vnodes"`
	MaxHops         int        `json:"max_hops"`
	Peers           []PeerInfo `json:"peers"`
	ForwardsIn      uint64     `json:"forwards_in"`
	ForwardsOut     uint64     `json:"forwards_out"`
	ReplicationsIn  uint64     `json:"replications_in"`
	ReplicationsOut uint64     `json:"replications_out"`
	CellsOwned      uint64     `json:"cells_owned"`
	Batches         int        `json:"batches"`
}

// Info snapshots the node for API documents.
func (n *Node) Info() Info {
	return Info{
		Self:            n.cfg.Self,
		RingSize:        n.ring.Size(),
		VNodes:          n.ring.VNodes(),
		MaxHops:         n.cfg.MaxHops,
		Peers:           n.members.Snapshot(),
		ForwardsIn:      n.forwardsIn.Load(),
		ForwardsOut:     n.forwardsOut.Load(),
		ReplicationsIn:  n.replicationsIn.Load(),
		ReplicationsOut: n.replicationsOut.Load(),
		CellsOwned:      n.cellsOwned.Load(),
		Batches:         len(n.sched.Batches()),
	}
}

// InfoDoc adapts Info to the transport Options.Cluster hook.
func (n *Node) InfoDoc() any { return n.Info() }
