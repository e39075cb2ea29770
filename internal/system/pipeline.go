package system

import (
	"ndpext/internal/sampler"
	"ndpext/internal/stream"
)

// The epoch pipeline runs the host runtime's sampler bookkeeping on a
// worker goroutine, overlapping the event-loop simulation. Every design
// that profiles runs through it.
//
// The key observation is that sampler observations never influence the
// timing of the epoch that produces them: Observe feeds shadow state
// whose only outputs are the miss curves harvested at the next epoch
// boundary and the Observes counter (SRAM energy). So the event loop can
// hand each observation to the worker over a bounded channel of
// immutable batches, and keep simulating. The boundary then proceeds in
// three beats:
//
//  1. join — the boundary flushes the batch in flight and asks the
//     worker to harvest curves; FIFO hand-off order guarantees every
//     observation of the closing epoch has been applied first.
//  2. solve — the configuration solve (policy.Optimize / nuca.Configure)
//     and Apply run on the event-loop thread: the next epoch's accesses
//     depend on the installed allocation, so this part is inherently
//     serial and stays the critical path.
//  3. detach — the sampler reassignment (retire, max-flow, install) is
//     posted to the worker and overlaps the next epoch's event loop.
//     Observations of the next epoch queue behind it, so they meet the
//     newly installed samplers.
//
// Everything the worker owns after start-up — the sampler bank, the
// uncovered-stream rotation set, the observation counter — is touched by
// the event-loop thread only through the channel protocol, and rejoined
// at the boundary (curves, counters) or at end of run. An inline pipe
// runs each message on the event-loop thread instead, as it is sent: the
// single-threaded reference the pipeline tests compare the worker with.
const (
	// obsBatchSize is the hand-off granularity: big enough to amortize
	// channel overhead, small enough that a batch is cache-resident.
	obsBatchSize = 4096
	// pipeDepth bounds batches in flight; the event loop backpressures
	// (blocks on send) rather than queueing unbounded observations.
	pipeDepth = 8
)

// obs is one sampler observation: the unit that served the access, the
// stream it belongs to, and the item ID observed.
type obs struct {
	unit int32
	sid  stream.ID
	item uint64
}

// harvestReply carries one epoch's curves back to the event-loop
// thread, with the authoritative observation counter and the number of
// streams the last reassignment covered (the samplers that observed the
// epoch just closed).
type harvestReply struct {
	global, local []harvestedCurve
	observes      uint64
	covered       int
	panicked      any
}

// finalReply is the end-of-run join.
type finalReply struct {
	observes uint64
	covered  int
	panicked any
}

// pipeMsg is one hand-off message; exactly one field is set.
type pipeMsg struct {
	batch   []obs
	harvest chan harvestReply
	job     *reassignJob
	final   chan finalReply
}

// epochPipe is the event-loop side of the pipeline plus the worker's
// exclusive state.
type epochPipe struct {
	msgs chan pipeMsg // nil when inline
	free chan []obs   // batch recycling; best-effort
	cur  []obs

	// Worker-owned after newEpochPipe returns.
	bank      *samplerBank
	scfg      sampler.Config
	observes  uint64
	uncovered map[stream.ID]bool
	covered   int
	panicked  any
}

// newEpochPipe starts the epoch worker over the given sampler bank, or,
// with inline set, a pipe that runs every message on the sender's
// thread. The caller must not touch the bank again until the pipe is
// closed.
func newEpochPipe(bank *samplerBank, scfg sampler.Config, inline bool) *epochPipe {
	p := &epochPipe{
		free: make(chan []obs, pipeDepth+1),
		cur:  make([]obs, 0, obsBatchSize),
		bank: bank,
		scfg: scfg,
	}
	if !inline {
		p.msgs = make(chan pipeMsg, pipeDepth)
		go p.worker()
	}
	return p
}

// send hands one message to the worker, or handles it right away when
// the pipe is inline.
func (p *epochPipe) send(m pipeMsg) {
	if p.msgs == nil {
		p.handle(m)
		return
	}
	p.msgs <- m
}

// observe records the observation and hands it off once the batch
// fills. Runs on the event-loop thread.
func (p *epochPipe) observe(unit int, sid stream.ID, item uint64) {
	p.cur = append(p.cur, obs{unit: int32(unit), sid: sid, item: item})
	if len(p.cur) == cap(p.cur) {
		p.flush()
	}
}

// flush sends the batch in flight (if any) and takes a recycled one.
func (p *epochPipe) flush() {
	if len(p.cur) == 0 {
		return
	}
	p.send(pipeMsg{batch: p.cur})
	select {
	case b := <-p.free:
		p.cur = b[:0]
	default:
		p.cur = make([]obs, 0, obsBatchSize)
	}
}

// harvest drains every pending observation and returns the epoch's
// curves. Called at the boundary, before the configuration solve.
func (p *epochPipe) harvest() harvestReply {
	p.flush()
	ch := make(chan harvestReply, 1)
	p.send(pipeMsg{harvest: ch})
	rep := <-ch
	if rep.panicked != nil {
		panic(rep.panicked)
	}
	return rep
}

// reassign posts the reassignment without waiting: the worker runs it
// concurrently with the next epoch's event loop.
func (p *epochPipe) reassign(job *reassignJob) {
	p.send(pipeMsg{job: job})
}

// close drains the pipeline, stops the worker, and returns the final
// counters. A panic that escaped the worker is re-raised here, on the
// event-loop thread.
func (p *epochPipe) close() finalReply {
	p.flush()
	ch := make(chan finalReply, 1)
	p.send(pipeMsg{final: ch})
	rep := <-ch
	if rep.panicked != nil {
		panic(rep.panicked)
	}
	return rep
}

// abort stops the worker without joining its results or re-raising its
// panic — the crash-cleanup path, called while the event-loop thread is
// itself unwinding a panic. The worker stays alive until it sees the
// final marker (it answers joins even when poisoned), so the send and
// receive both complete.
func (p *epochPipe) abort() {
	ch := make(chan finalReply, 1)
	p.send(pipeMsg{final: ch})
	<-ch
}

// worker is the epoch worker's loop: apply observation batches, harvest
// curves, run reassignments — strictly in hand-off order.
func (p *epochPipe) worker() {
	for m := range p.msgs {
		if p.handle(m) {
			return
		}
	}
}

// handle processes one message and answers the end-of-run join; it
// reports whether the message was that join.
func (p *epochPipe) handle(m pipeMsg) bool {
	p.step(m)
	if m.final == nil {
		return false
	}
	m.final <- finalReply{observes: p.observes, covered: p.covered, panicked: p.panicked}
	return true
}

// step processes one message. A panic inside sampler or max-flow code is
// captured and the pipe poisoned: state stops advancing, every
// subsequent join is answered with the panic value so the event loop
// re-raises it instead of deadlocking.
func (p *epochPipe) step(m pipeMsg) {
	defer func() {
		// A harvest answers last, so a panic means it is still unanswered.
		if r := recover(); r != nil {
			if p.panicked == nil {
				p.panicked = r
			}
			if m.harvest != nil {
				m.harvest <- harvestReply{panicked: p.panicked}
			}
		}
	}()
	if p.panicked != nil {
		if m.harvest != nil {
			m.harvest <- harvestReply{panicked: p.panicked}
		}
		return
	}
	switch {
	case m.batch != nil:
		for _, o := range m.batch {
			p.apply(o)
		}
		select {
		case p.free <- m.batch:
		default:
		}
	case m.harvest != nil:
		g, l := harvestCurves(p.bank)
		m.harvest <- harvestReply{global: g, local: l, observes: p.observes, covered: p.covered}
	case m.job != nil:
		p.covered, p.uncovered = m.job.run(p.bank, p.uncovered)
	}
}

// apply feeds one observation to the stream's samplers: the local
// sampler (this epoch's assigned unit only — the per-core reuse view)
// and the global one (the home sets see traffic from every core, §V-A).
// When both fire (accesses at the assigned unit) the pair update shares
// the shadow-set arithmetic.
func (p *epochPipe) apply(o obs) {
	l := p.bank.local[o.unit][o.sid]
	g := p.bank.global[o.sid]
	switch {
	case l != nil && g != nil:
		sampler.ObservePair(l, g, o.item)
		p.observes += 2
	case g != nil:
		g.Observe(o.item)
		p.observes++
	case l != nil:
		l.Observe(o.item)
		p.observes++
	}
}
