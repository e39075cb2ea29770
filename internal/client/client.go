// Package client is the typed Go client for the ndpserve HTTP API,
// built for an unreliable network and a crash-safe server: jittered
// exponential backoff that honors Retry-After on 429/5xx, safe
// idempotent resubmission after ambiguous failures (submissions are
// content-addressed, so submitting twice can only hit the cache), and
// SSE streaming with automatic reconnect that resumes via the server's
// replay-then-follow history when a stream drops or lags.
//
// Retry policy, precisely: network errors, 429, 502, 503, and 504 are
// retried (429's Retry-After hint, when present, overrides the computed
// backoff); every other 4xx — including 422 for quarantined traces —
// and 500 are terminal, surfaced as *APIError. Backoff for attempt n
// sleeps min(MaxDelay, BaseDelay·2ⁿ) scaled by a uniform jitter in
// [0.5, 1.5).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ndpext/internal/server/scheduler"
	"ndpext/internal/server/wire"
)

// Options configures a Client. Zero values take the documented
// defaults.
type Options struct {
	// MaxAttempts bounds tries per request (first try included);
	// default 5.
	MaxAttempts int
	// BaseDelay is the first backoff step; default 200ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff step; default 10s.
	MaxDelay time.Duration
	// PollInterval paces Await's status polling; default 250ms.
	PollInterval time.Duration
	// HTTPClient overrides the transport; the default has no global
	// timeout (SSE streams are long-lived) — bound calls with contexts.
	HTTPClient *http.Client
	// Jitter returns a uniform sample from [0, 1); default math/rand.
	// Tests inject a constant to make backoff deterministic.
	Jitter func() float64
	// Logf, when set, receives one line per retry ("attempt 2/5 ...");
	// default silent.
	Logf func(format string, args ...any)
	// Headers are added to every request (JSON calls and SSE streams
	// alike). The cluster forwarder stamps its hop-count header here so
	// a receiving peer can detect and break forwarding loops.
	Headers map[string]string
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 200 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 10 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 250 * time.Millisecond
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.Jitter == nil {
		o.Jitter = rand.Float64
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Client talks to one ndpserve instance.
type Client struct {
	base string
	opt  Options
}

// New builds a client for the server at base (e.g.
// "http://localhost:8080"); a trailing slash is trimmed.
func New(base string, opt Options) *Client {
	return &Client{base: strings.TrimRight(base, "/"), opt: opt.withDefaults()}
}

// APIError is a non-2xx response that retrying cannot fix (or that
// exhausted its retries), with its Retry-After hint, if any.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

// apiError builds the *APIError of a non-2xx response.
func apiError(resp *http.Response, body []byte) *APIError {
	e := &APIError{StatusCode: resp.StatusCode, Message: errorMessage(body)}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// ErrUnknownJob marks a job ID the server no longer knows — typically
// because it restarted and lost its in-memory job table. The spec that
// produced the ID can be resubmitted safely: submissions are
// content-addressed, so the retry either hits the warm-restart cache or
// re-runs the identical simulation.
var ErrUnknownJob = errors.New("client: server does not know this job (restarted?); resubmit the spec")

// retryable reports whether a response status is worth another attempt.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff returns the jittered sleep before attempt n (0-based retry
// count). retryAfter, when positive, is the server's hint and wins.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := c.opt.BaseDelay << uint(n)
	if d > c.opt.MaxDelay || d <= 0 {
		d = c.opt.MaxDelay
	}
	return time.Duration((0.5 + c.opt.Jitter()) * float64(d))
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errorMessage extracts the server's JSON diagnostic (falling back to
// the raw body).
func errorMessage(body []byte) string {
	var doc wire.ErrorDoc
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(body))
}

// do performs one JSON round trip with retries, decoding a 2xx body
// into out (when non-nil). notFound, when non-nil, replaces the
// *APIError for 404s. With relay429 set, a 429 returns at once as the
// server's verdict instead of being retried.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, notFound error, relay429 bool) error {
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, c.lastBackoff(attempt-1, lastErr)); err != nil {
				return err
			}
			c.opt.Logf("retrying %s %s (attempt %d/%d): %v", method, path, attempt+1, c.opt.MaxAttempts, lastErr)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, v := range c.opt.Headers {
			req.Header.Set(k, v)
		}
		resp, err := c.opt.HTTPClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = &netError{err}
			continue
		}
		respBody, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotFound && notFound != nil:
			return notFound
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if readErr != nil {
				lastErr = &netError{readErr}
				continue
			}
			if out == nil {
				return nil
			}
			return json.Unmarshal(respBody, out)
		case retryable(resp.StatusCode) && !(relay429 && resp.StatusCode == http.StatusTooManyRequests):
			lastErr = apiError(resp, respBody)
			continue
		default:
			return apiError(resp, respBody)
		}
	}
	return fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, c.opt.MaxAttempts, lastErr)
}

// netError wraps a transport-level failure so retries distinguish it
// from server responses.
type netError struct{ err error }

func (e *netError) Error() string { return e.err.Error() }
func (e *netError) Unwrap() error { return e.err }

// lastBackoff derives the sleep before the next try from the previous
// failure: the server's Retry-After hint when it gave one, jittered
// exponential backoff otherwise.
func (c *Client) lastBackoff(n int, lastErr error) time.Duration {
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) {
		return c.backoff(n, apiErr.RetryAfter)
	}
	return c.backoff(n, 0)
}

// Submit posts one JobSpec and returns the accepted job's status
// (terminal immediately on a cache hit).
func (c *Client) Submit(ctx context.Context, spec scheduler.JobSpec) (scheduler.JobStatus, error) {
	return c.submit(ctx, spec, false)
}

// Forward is Submit for a cluster node relaying to the key's owner: the
// owner's 429 is its verdict, returned at once rather than retried.
func (c *Client) Forward(ctx context.Context, spec scheduler.JobSpec) (scheduler.JobStatus, error) {
	return c.submit(ctx, spec, true)
}

func (c *Client) submit(ctx context.Context, spec scheduler.JobSpec, relay429 bool) (scheduler.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return scheduler.JobStatus{}, err
	}
	var st scheduler.JobStatus
	err = c.do(ctx, http.MethodPost, "/v1/jobs", body, &st, nil, relay429)
	return st, err
}

// Job fetches one job's status; ErrUnknownJob when the server does not
// know the ID.
func (c *Client) Job(ctx context.Context, id string) (scheduler.JobStatus, error) {
	var st scheduler.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st, ErrUnknownJob, false)
	return st, err
}

// Await polls until the job is terminal and returns its final status.
func (c *Client) Await(ctx context.Context, id string) (scheduler.JobStatus, error) {
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return scheduler.JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := sleep(ctx, c.opt.PollInterval); err != nil {
			return scheduler.JobStatus{}, err
		}
	}
}

// SubmitAndAwait submits the spec and waits for the terminal status,
// resubmitting when the server forgets the job mid-wait (ErrUnknownJob
// after a restart). Resubmission is exact, not best-effort: the job key
// is the SHA-256 of the spec's canonical inputs, so the retry either
// hits the warm-restart cache or re-runs the identical simulation —
// never a duplicate divergent run.
func (c *Client) SubmitAndAwait(ctx context.Context, spec scheduler.JobSpec) (scheduler.JobStatus, error) {
	var lastErr error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			return scheduler.JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		st, err = c.Await(ctx, st.ID)
		if !errors.Is(err, ErrUnknownJob) {
			return st, err
		}
		lastErr = err
		c.opt.Logf("job vanished mid-wait (attempt %d/%d); resubmitting the content-addressed spec", attempt+1, c.opt.MaxAttempts)
	}
	return scheduler.JobStatus{}, fmt.Errorf("client: job kept vanishing after %d submissions: %w", c.opt.MaxAttempts, lastErr)
}

// Result fetches a terminal job's canonical result document.
func (c *Client) Result(ctx context.Context, id string) (json.RawMessage, error) {
	var doc json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &doc, ErrUnknownJob, false)
	return doc, err
}

// SubmitBatch posts one BatchSpec matrix.
func (c *Client) SubmitBatch(ctx context.Context, spec scheduler.BatchSpec) (scheduler.BatchStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return scheduler.BatchStatus{}, err
	}
	var st scheduler.BatchStatus
	err = c.do(ctx, http.MethodPost, "/v1/batch", body, &st, nil, false)
	return st, err
}

// Batch fetches one batch's status.
func (c *Client) Batch(ctx context.Context, id string) (scheduler.BatchStatus, error) {
	var st scheduler.BatchStatus
	err := c.do(ctx, http.MethodGet, "/v1/batch/"+id, nil, &st, ErrUnknownJob, false)
	return st, err
}

// AwaitBatch polls until every cell is terminal.
func (c *Client) AwaitBatch(ctx context.Context, id string) (scheduler.BatchStatus, error) {
	for {
		st, err := c.Batch(ctx, id)
		if err != nil {
			return scheduler.BatchStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if err := sleep(ctx, c.opt.PollInterval); err != nil {
			return scheduler.BatchStatus{}, err
		}
	}
}

// BatchResult fetches a terminal batch's canonical matrix document.
func (c *Client) BatchResult(ctx context.Context, id string) (json.RawMessage, error) {
	var doc json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/batch/"+id+"/result", nil, &doc, ErrUnknownJob, false)
	return doc, err
}

// Event is one SSE record from a job's progress stream.
type Event struct {
	Type string
	Data json.RawMessage
}

// terminalEvent reports whether an SSE event type ends the stream.
func terminalEvent(typ string) bool {
	switch scheduler.State(typ) {
	case scheduler.StateDone, scheduler.StateFailed, scheduler.StateTruncated:
		return true
	}
	return false
}

// Events streams a job's progress, reconnecting automatically. The
// server's streams are replay-then-follow — each (re)connection replays
// the full event history — so the client counts delivered events and
// skips that many on reconnect: a dropped connection resumes exactly
// where it left off, and a "lagged" event (the server dropped events
// this subscriber could not drain fast enough) triggers a reconnect
// that recovers the gap from the replay instead of surfacing a hole.
// The channel closes after the terminal event, after MaxAttempts
// consecutive failed reconnects, or when ctx is done.
func (c *Client) Events(ctx context.Context, jobID string) <-chan Event {
	ch := make(chan Event, 16)
	go func() {
		defer close(ch)
		seen := 0
		failures := 0
		for {
			n, terminal, err := c.streamOnce(ctx, jobID, seen, ch)
			seen += n
			if terminal || ctx.Err() != nil {
				return
			}
			if n > 0 {
				failures = 0 // progress: the stream is alive, just interrupted
			}
			failures++
			if failures >= c.opt.MaxAttempts {
				c.opt.Logf("event stream for %s: giving up after %d failed reconnects (%v)", jobID, failures, err)
				return
			}
			if err := sleep(ctx, c.backoff(failures-1, 0)); err != nil {
				return
			}
			c.opt.Logf("event stream for %s dropped (%v); reconnecting at event %d", jobID, err, seen)
		}
	}()
	return ch
}

// streamOnce runs one SSE connection: skip the first skip events of the
// replay, forward the rest, and return how many new events were
// delivered plus whether the terminal event arrived. A "lagged" event
// returns immediately (not counted, not forwarded) so the caller
// reconnects and recovers the dropped events from the replay.
func (c *Client) streamOnce(ctx context.Context, jobID string, skip int, ch chan<- Event) (delivered int, terminal bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	for k, v := range c.opt.Headers {
		req.Header.Set(k, v)
	}
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, false, &APIError{StatusCode: resp.StatusCode, Message: errorMessage(body)}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var typ string
	var data []byte
	flush := func() (done bool) {
		if typ == "" {
			return false
		}
		ev := Event{Type: typ, Data: data}
		typ, data = "", nil
		if ev.Type == "lagged" {
			// The server dropped events we never saw; the replay on the
			// next connection has them all.
			return true
		}
		if skip > 0 {
			skip--
			return false
		}
		select {
		case ch <- ev:
		case <-ctx.Done():
			return true
		}
		delivered++
		if terminalEvent(ev.Type) {
			terminal = true
			return true
		}
		return false
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if flush() {
				return delivered, terminal, nil
			}
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := sc.Err(); err != nil {
		return delivered, terminal, err
	}
	// EOF: the server closes the stream after the terminal event, so a
	// clean close without one means the connection was cut mid-stream.
	return delivered, terminal, io.ErrUnexpectedEOF
}
