package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ndpext/internal/client"
	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/wire"
)

// replicaMaxBody bounds PUT /v1/cluster/cache bodies: result documents
// are tens of KiB; megabytes is an accident.
const replicaMaxBody = 8 << 20

// NewHandler wraps a node's single-node HTTP handler with the cluster
// routes:
//
//	POST /v1/jobs                  route by content address: run locally
//	                               or forward to the owning peer
//	GET  /v1/jobs/{id}             local job, or proxied to the peer the
//	GET  /v1/jobs/{id}/result      submission was forwarded to
//	GET  /v1/jobs/{id}/events      SSE proxied with reconnect/replay
//	POST /v1/batch  (and /batch)   fan the matrix out across the ring
//	PUT  /v1/cluster/cache/{key}   accept a replicated result document
//	GET  /v1/cluster               the node's ring/membership document
//
// Everything else — listings, stats, healthz, traces, and every batch
// GET — falls through to inner unchanged: a routed batch lives in the
// local scheduler beside atomic ones, so transport serves both. inner
// is deliberately typed http.Handler, not the transport package's
// concrete type: cluster sits beside transport at the HTTP edge and
// neither imports the other.
func NewHandler(n *Node, inner http.Handler) http.Handler {
	h := &handler{n: n, inner: inner}
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("POST /v1/jobs", h.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", h.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", h.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.handleJobEvents)
	mux.HandleFunc("POST /v1/batch", h.handleBatchSubmit)
	mux.HandleFunc("POST /batch", h.handleBatchSubmit)
	mux.HandleFunc("PUT /v1/cluster/cache/{key}", h.handleReplica)
	mux.HandleFunc("GET /v1/cluster", h.handleInfo)
	return mux
}

type handler struct {
	n     *Node
	inner http.Handler
}

// writeAPIError maps a client-layer error from a peer onto this
// response: API verdicts pass through with their status and Retry-After
// hint, transport failures become 502.
func writeAPIError(w http.ResponseWriter, peer string, err error) {
	var apiErr *client.APIError
	switch {
	case errors.Is(err, client.ErrUnknownJob):
		wire.WriteError(w, http.StatusNotFound, err)
	case errors.As(err, &apiErr):
		if apiErr.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(apiErr.RetryAfter.Seconds())))
		}
		wire.WriteError(w, apiErr.StatusCode, errors.New(apiErr.Message))
	default:
		wire.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("cluster: peer %s unreachable: %w", peer, err))
	}
}

// serveInner replays the buffered body into the wrapped single-node
// handler — the "run it here" leg of routing.
func (h *handler) serveInner(w http.ResponseWriter, r *http.Request, body []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	h.inner.ServeHTTP(w, r2)
}

// readBody buffers a submission body (the router must both decode it
// and be able to replay it into the inner handler). Size errors are
// left to the inner handler's MaxBytesReader: an oversized body simply
// routes locally and gets the canonical 413.
func (h *handler) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	r.Body.Close()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	return body, true
}

// handleSubmit routes one submission by its content address: local when
// this node owns the key (or holds a replica, or the hop budget is
// spent), forwarded to the owner otherwise, falling to the ring
// successor — and ultimately to local execution — as peers fail.
// Undecodable and unkeyable bodies route locally so the inner handler
// produces the canonical error response.
func (h *handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	inHops := hops(r)
	if inHops > 0 {
		h.n.forwardsIn.Add(1)
	}
	var spec scheduler.JobSpec
	if wire.DecodeStrict(bytes.NewReader(body), &spec) != nil {
		h.serveInner(w, r, body)
		return
	}
	key, err := h.n.sched.KeyFor(spec)
	if err != nil {
		h.serveInner(w, r, body)
		return
	}
	for attempt := 0; attempt < cellRouteAttempts; attempt++ {
		owner, local := h.n.shouldRunLocally(key, inHops)
		if local {
			h.n.cellsOwned.Add(1)
			h.serveInner(w, r, body)
			return
		}
		cl := h.n.forwardClient(owner, inHops+1)
		st, err := cl.Forward(r.Context(), spec)
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) {
				// The owner answered and rejected (bad spec, quarantined
				// trace, backpressure): its verdict is the response.
				writeAPIError(w, owner, err)
				return
			}
			h.n.members.ReportFailure(owner, err)
			h.n.cfg.Logf("cluster: forward to %s failed (%v); re-routing", owner, err)
			continue
		}
		h.n.forwardsOut.Add(1)
		h.n.recordRoute(st.ID, owner)
		st.Owner = owner
		code := http.StatusAccepted
		if st.State.Terminal() {
			code = http.StatusOK
		}
		wire.WriteJSON(w, code, st)
		return
	}
	h.n.cellsOwned.Add(1)
	h.serveInner(w, r, body)
}

// handleJobStatus serves a local job from the inner handler or proxies
// a forwarded job to the peer that took it.
func (h *handler) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	peer, ok := h.n.routeFor(id)
	if !ok {
		h.inner.ServeHTTP(w, r)
		return
	}
	st, err := client.New(peer, h.n.cfg.Client).Job(r.Context(), id)
	if err != nil {
		writeAPIError(w, peer, err)
		return
	}
	st.Owner = peer
	wire.WriteJSON(w, http.StatusOK, st)
}

// handleJobResult proxies a forwarded job's result document verbatim.
func (h *handler) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	peer, ok := h.n.routeFor(id)
	if !ok {
		h.inner.ServeHTTP(w, r)
		return
	}
	doc, err := client.New(peer, h.n.cfg.Client).Result(r.Context(), id)
	if err != nil {
		writeAPIError(w, peer, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// handleJobEvents re-emits a forwarded job's SSE stream through this
// node. The client layer's replay-then-follow reconnect does the heavy
// lifting: a dropped upstream connection resumes from the owner's
// replay without the downstream consumer noticing.
func (h *handler) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	peer, ok := h.n.routeFor(id)
	if !ok {
		h.inner.ServeHTTP(w, r)
		return
	}
	fl := wire.SSEWriter(w)
	if fl == nil {
		return
	}
	for ev := range client.New(peer, h.n.cfg.Client).Events(r.Context(), id) {
		wire.WriteSSE(w, fl, ev.Type, ev.Data)
	}
}

// handleBatchSubmit fans a matrix out across the ring as a routed
// batch of the local scheduler; runCell places each cell. Unlike a
// single node's atomic all-or-nothing admission, cluster admission is
// per-cell best-effort: cells land on different peers, so one full peer
// fails its cells rather than rejecting the whole matrix. The response
// is always 202 — cells complete asynchronously even when fully cached.
// A matrix the scheduler rejects (malformed, unknown design,
// quarantined trace, draining) routes to the inner handler, which
// answers with the single-node status and body.
func (h *handler) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := h.readBody(w, r)
	if !ok {
		return
	}
	var spec scheduler.BatchSpec
	if wire.DecodeStrict(bytes.NewReader(body), &spec) != nil {
		h.serveInner(w, r, body)
		return
	}
	b, err := h.n.sched.SubmitRoutedBatch(spec, h.n.runCell)
	if err != nil {
		h.serveInner(w, r, body)
		return
	}
	wire.WriteJSON(w, http.StatusAccepted, b.Status())
}

// handleReplica accepts a result document pushed by a peer's OnStored
// hook and installs it in the local store.
func (h *handler) handleReplica(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, replicaMaxBody))
	r.Body.Close()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading replica body: %w", err))
		return
	}
	if err := h.n.acceptReplica(r.PathValue("key"), body); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleInfo serves the node's cluster document.
func (h *handler) handleInfo(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, h.n.Info())
}
