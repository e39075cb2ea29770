package scheduler

import "sync"

// subscriberBuffer is the default per-subscriber live-event buffer.
const subscriberBuffer = 64

// eventLog is the serving stack's one bounded replay-then-follow
// fanout, shared by jobs and batches. It keeps the complete event
// history; a subscriber first receives that history, then follows live
// events until close. Live delivery never blocks the publisher: a
// publish into a full subscriber buffer drops the event and counts it,
// and the next successful send is preceded by a "lagged" marker
// carrying the count, so a stalled SSE client learns it missed events
// (re-subscribing replays everything) and can never back-pressure a
// worker or a cell runner.
type eventLog[E any] struct {
	// wrap turns the lagged marker into this log's event type.
	wrap func(Event) E

	mu      sync.Mutex
	history []E
	subs    map[*logSub[E]]struct{}
	closed  bool
}

// logSub is one bounded subscriber; dropped counts events lost since
// its last successful send. Guarded by the log's mu.
type logSub[E any] struct {
	ch      chan E
	dropped int
}

func newEventLog[E any](wrap func(Event) E) *eventLog[E] {
	return &eventLog[E]{wrap: wrap, subs: make(map[*logSub[E]]struct{})}
}

// lagged is the marker a subscriber receives after an overflow. It is
// built here and nowhere else.
func (l *eventLog[E]) lagged(dropped int) E {
	return l.wrap(Event{Type: "lagged", Data: LaggedEvent{Dropped: dropped}})
}

// send delivers ev to one subscriber without blocking. Caller holds mu.
func (l *eventLog[E]) send(s *logSub[E], ev E) {
	if s.dropped > 0 {
		select {
		case s.ch <- l.lagged(s.dropped):
			s.dropped = 0
		default:
			s.dropped++ // ev joins the dropped run
			return
		}
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped++
	}
}

// publish appends ev to the history and fans it out. Publishing to a
// closed log is a no-op.
func (l *eventLog[E]) publish(ev E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.history = append(l.history, ev)
	for s := range l.subs {
		l.send(s, ev)
	}
}

// subscribe returns a channel that replays the history and then follows
// live events with buf slots of headroom, plus an idempotent
// unsubscribe func. The channel closes after the final event; on a
// closed log it holds the full history, final event last, and is
// already closed.
func (l *eventLog[E]) subscribe(buf int) (<-chan E, func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := make(chan E, len(l.history)+buf)
	for _, ev := range l.history {
		ch <- ev
	}
	if l.closed {
		close(ch)
		return ch, func() {}
	}
	s := &logSub[E]{ch: ch}
	l.subs[s] = struct{}{}
	var once sync.Once
	return ch, func() {
		once.Do(func() {
			l.mu.Lock()
			delete(l.subs, s)
			l.mu.Unlock()
		})
	}
}

// close appends final, delivers it, and closes every subscriber in one
// critical section, so a concurrent subscribe either lands before and
// receives final live, or after and receives it from the replay. A
// subscriber that is still lagging gets a best-effort lagged marker
// before its channel closes. Only the first close takes effect.
func (l *eventLog[E]) close(final E) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.history = append(l.history, final)
	for s := range l.subs {
		l.send(s, final)
		if s.dropped > 0 {
			select {
			case s.ch <- l.lagged(s.dropped):
			default:
			}
		}
		close(s.ch)
		delete(l.subs, s)
	}
	l.closed = true
}
