package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ndpext/internal/client"
	"ndpext/internal/server/scheduler"
)

// cellRouteAttempts bounds how many times one cell is re-routed after
// transport failures before the accepting node runs it itself.
const cellRouteAttempts = 4

// runCell drives one cell to a terminal state: route to the current
// owner, follow its progress, and — when the owner dies mid-flight —
// requeue on whichever peer the ring now elects (content addressing
// makes the resubmission idempotent: the new owner either has the
// replicated result, piggybacks on an identical in-flight job, or
// re-runs the cell from scratch). After cellRouteAttempts transport
// failures the accepting node runs the cell locally as a last resort.
func (n *Node) runCell(c *scheduler.BatchCell) {
	for attempt := 0; attempt < cellRouteAttempts; attempt++ {
		if n.baseCtx.Err() != nil {
			c.Fail("cluster: node shutting down")
			return
		}
		owner, local := n.shouldRunLocally(c.Key, 0)
		if local {
			n.runCellLocal(c)
			return
		}
		if n.runCellRemote(c, owner) {
			return
		}
		// Transport-level failure: the peer was demoted by ReportFailure;
		// the next iteration re-resolves the owner against the new view.
		n.cfg.Logf("cluster: cell %d (%s) lost on %s; re-routing (attempt %d)",
			c.Index, c.Key.String()[:12], owner, attempt+1)
	}
	n.runCellLocal(c)
}

// runCellLocal submits the cell to the local scheduler and follows the
// job into the batch. A full local queue is waited out (the accepting
// node must eventually land every cell it could not place remotely).
func (n *Node) runCellLocal(c *scheduler.BatchCell) {
	var job *scheduler.Job
	for {
		var err error
		job, err = n.sched.Submit(c.Spec)
		if err == nil {
			break
		}
		if !errors.Is(err, scheduler.ErrQueueFull) {
			c.Fail(err.Error())
			return
		}
		wait := n.sched.RetryAfterHint()
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		select {
		case <-time.After(wait):
		case <-n.baseCtx.Done():
			c.Fail("cluster: node shutting down")
			return
		}
	}
	n.cellsOwned.Add(1)
	c.Follow(n.cfg.Self, job)
}

// runCellRemote submits the cell to owner and follows it to a terminal
// state, relaying proxied SSE into the batch. It returns false when the
// owner failed at the transport level (or forgot the job after a
// restart) and the cell should be re-routed; in that case the peer has
// already been reported down. A replay after re-routing can repeat
// events already in the batch log — consumers see a superset, never a
// gap.
func (n *Node) runCellRemote(c *scheduler.BatchCell, owner string) bool {
	ctx, cancel := context.WithCancel(n.baseCtx)
	defer cancel()
	cl := n.forwardClient(owner, 1)

	st, err := cl.Submit(ctx, c.Spec)
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			// The owner answered and rejected: a verdict, not an outage.
			c.Fail(fmt.Sprintf("cluster: owner %s rejected cell: %v", owner, apiErr))
			return true
		}
		n.members.ReportFailure(owner, err)
		return false
	}
	n.forwardsOut.Add(1)
	c.Routed(owner, st.ID)
	if st.State.Terminal() {
		finishPolled(c, st)
		return true
	}

	for ev := range cl.Events(ctx, st.ID) {
		// Payloads stay raw JSON: the owner's bytes pass through.
		c.Publish(scheduler.Event{Type: ev.Type, Data: ev.Data})
		if scheduler.State(ev.Type).Terminal() {
			// The terminal event carries the full final status, result
			// included — no extra round trip, and it survives the owner
			// dying right after finishing.
			var fin scheduler.JobStatus
			if json.Unmarshal(ev.Data, &fin) == nil && fin.State.Terminal() {
				c.Finish(fin)
				return true
			}
		}
	}

	// The stream gave up without a terminal event; fall back to polling.
	fin, err := cl.Await(ctx, st.ID)
	switch {
	case err == nil:
		finishPolled(c, fin)
		return true
	case errors.Is(err, client.ErrUnknownJob):
		// The owner restarted and lost its job table: requeue elsewhere.
		n.members.ReportFailure(owner, err)
		return false
	default:
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			c.Fail(fmt.Sprintf("cluster: owner %s failed cell: %v", owner, apiErr))
			return true
		}
		n.members.ReportFailure(owner, err)
		return false
	}
}

// finishPolled records an outcome learned by polling rather than from
// the SSE stream, publishing the terminal event the stream never
// carried.
func finishPolled(c *scheduler.BatchCell, st scheduler.JobStatus) {
	c.Publish(scheduler.Event{Type: string(st.State), Data: st})
	c.Finish(st)
}
