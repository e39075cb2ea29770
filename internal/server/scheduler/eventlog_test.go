package scheduler

import (
	"sync"
	"testing"
)

// drain reads ch until it closes.
func drain[E any](ch <-chan E) []E {
	var out []E
	for ev := range ch {
		out = append(out, ev)
	}
	return out
}

func intLog() *eventLog[Event] { return newEventLog(func(ev Event) Event { return ev }) }

func wantEvents(t *testing.T, got []Event, want ...Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func ev(i int) Event { return Event{Type: "epoch", Data: i} }

func lag(n int) Event { return Event{Type: "lagged", Data: LaggedEvent{Dropped: n}} }

// TestEventLogReplayThenFollow: a subscriber gets the history, then
// live events, then the final event, then a closed channel.
func TestEventLogReplayThenFollow(t *testing.T) {
	l := intLog()
	l.publish(ev(0))
	l.publish(ev(1))
	ch, unsub := l.subscribe(4)
	defer unsub()
	l.publish(ev(2))
	final := Event{Type: "done"}
	l.close(final)
	wantEvents(t, drain(ch), ev(0), ev(1), ev(2), final)
}

// TestEventLogLagThenResume: an overflowing publish never blocks, the
// dropped run surfaces as one lagged marker ahead of the next event
// that fits, and delivery resumes after it.
func TestEventLogLagThenResume(t *testing.T) {
	l := intLog()
	ch, unsub := l.subscribe(2)
	defer unsub()
	for i := 0; i < 10; i++ {
		l.publish(ev(i)) // must never block
	}
	// The buffer held 0 and 1; 2..9 were dropped.
	wantEvents(t, []Event{<-ch, <-ch}, ev(0), ev(1))
	l.publish(ev(10))
	wantEvents(t, []Event{<-ch, <-ch}, lag(8), ev(10))
	l.publish(ev(11))
	wantEvents(t, []Event{<-ch}, ev(11))
}

// TestEventLogCloseLagged: a subscriber still lagging at close learns
// it missed events — including the final one — from a lagged marker
// before its channel closes, and a re-subscribe replays everything.
func TestEventLogCloseLagged(t *testing.T) {
	l := intLog()
	ch, unsub := l.subscribe(1)
	defer unsub()
	l.publish(ev(0))
	l.publish(ev(1)) // dropped
	<-ch             // one free slot: room for the marker, not the final
	final := Event{Type: "done"}
	l.close(final)
	wantEvents(t, drain(ch), lag(1))

	replay, _ := l.subscribe(0)
	wantEvents(t, drain(replay), ev(0), ev(1), final)
}

// TestEventLogSubscribeAfterClose: a late subscriber gets the full
// history with the final event last, on an already-closed channel;
// publishing after close changes nothing.
func TestEventLogSubscribeAfterClose(t *testing.T) {
	l := intLog()
	l.publish(ev(0))
	final := Event{Type: "done"}
	l.close(final)
	l.publish(ev(1))
	l.close(Event{Type: "failed"})
	ch, unsub := l.subscribe(4)
	unsub()
	wantEvents(t, drain(ch), ev(0), final)
}

// TestEventLogUnsubscribeIdempotent: unsubscribing twice is harmless,
// detaches the subscriber, and close leaves its channel alone.
func TestEventLogUnsubscribeIdempotent(t *testing.T) {
	l := intLog()
	ch, unsub := l.subscribe(4)
	unsub()
	unsub()
	l.publish(ev(0))
	l.close(Event{Type: "done"})
	if n := len(l.subs); n != 0 {
		t.Fatalf("%d subscribers left after unsubscribe", n)
	}
	select {
	case got, ok := <-ch:
		t.Fatalf("detached subscriber received %v (open=%v)", got, ok)
	default:
	}
}

// TestSubscribeRacingFinishEndsWithTerminal is the regression test for
// a lost terminal event: a Subscribe landing between a job turning
// terminal and its terminal event being published used to get a closed
// channel without that event. Every subscription must end with it.
func TestSubscribeRacingFinishEndsWithTerminal(t *testing.T) {
	spec := fastSpec(1).Normalize()
	cfg := mustBuild(t, spec)
	key := spec.Key(cfg, "")
	const subs = 4
	lost := 0
	for i := 0; i < 5000; i++ {
		j := newJob(key, spec, cfg)
		start := make(chan struct{})
		var got [subs][]Event
		var wg sync.WaitGroup
		wg.Add(1 + subs)
		go func() {
			defer wg.Done()
			<-start
			j.finish(StateDone, []byte(`{}`), "")
		}()
		for k := range got {
			go func(k int) {
				defer wg.Done()
				<-start
				ch, unsub := j.Subscribe()
				defer unsub()
				got[k] = drain(ch)
			}(k)
		}
		close(start)
		wg.Wait()
		for _, evs := range got {
			if n := len(evs); n == 0 || evs[n-1].Type != string(StateDone) {
				lost++
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d subscriptions ended without the terminal event", lost, 5000*subs)
	}
}
