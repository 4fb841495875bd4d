// Package client is the retrying HTTP client for popserved's streaming
// simulate endpoint. It hides the service's failure modes behind one call:
// Stream posts a job and delivers each replica record exactly once, in
// replica order, surviving queue backpressure (429/409 with Retry-After),
// transient server errors, and mid-stream disconnects — on reconnect it
// re-posts the same spec and skips the replicas it already delivered, so
// the delivered byte stream is identical to an uninterrupted run.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"popkit/internal/expt"
)

// Options configures a Client. The zero value of every field has a usable
// meaning; only BaseURL is required.
type Options struct {
	// BaseURL is the popserved root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient (tests, timeouts, TLS).
	HTTPClient *http.Client
	// MaxRetries bounds CONSECUTIVE failed attempts — attempts that deliver
	// no new record. An attempt that makes progress (a reconnect that gets
	// further into the stream) resets the budget, so a long job tolerates
	// many separate disconnects without ever giving up mid-recovery.
	MaxRetries int
	// BackoffBase is the first retry delay; doubles per consecutive
	// failure. Default 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff. Default 5s. A server
	// Retry-After hint overrides the computed backoff entirely.
	BackoffMax time.Duration
	// Tenant, when non-empty, is sent as X-Popkit-Tenant on every request,
	// so the server's fair queueing bills this client's jobs to the right
	// per-tenant lane. Empty means the server's default tenant.
	Tenant string
	// Logf, when set, receives one line per retry (diagnostics only).
	Logf func(format string, args ...any)
}

// Client streams simulation jobs from a popserved instance.
type Client struct {
	opt Options
	rng uint64
	// lastCache is the X-Popkit-Cache header of the most recent 200 response
	// ("" when the server has no result store).
	lastCache string
}

// LastCacheStatus reports the X-Popkit-Cache header of the last successful
// attempt: "hit" (served from the server's result store), "miss" (computed,
// then committed), or "" (server has no store, or no attempt yet). Valid
// after Stream or Sweep returns; not safe for use concurrently with them.
func (c *Client) LastCacheStatus() string { return c.lastCache }

// New builds a client; see Options for defaults.
func New(opt Options) *Client {
	if opt.HTTPClient == nil {
		opt.HTTPClient = http.DefaultClient
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 100 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	return &Client{opt: opt}
}

func (c *Client) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// permanentError marks failures no retry can fix (spec rejected, protocol
// violation in the stream).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Stream posts spec to POST /v1/simulate and delivers every replica record
// of the spec's window [spec.Start, spec.Replicas) to fn exactly once, in
// replica order, with the record's exact NDJSON line (newline included) —
// concatenating the lines reproduces the server stream byte for byte. fn is
// never called with an error record: a failed replica aborts the attempt
// and is retried instead, because a crash the server can recover from
// (restart, journal resume, replica retry) must not leak into the output.
// Stream returns nil only after replica spec.Replicas-1 has been delivered.
func (c *Client) Stream(ctx context.Context, spec expt.JobSpec, fn func(rec expt.ReplicaRecord, line []byte)) error {
	if c.opt.BaseURL == "" {
		return &permanentError{errors.New("client: no BaseURL")}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return &permanentError{err}
	}
	want := spec.Replicas
	if want < 1 {
		want = 1
	}
	next := spec.Start // next replica index to deliver; survives reconnects
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		before := next
		retryAfter, err := c.attempt(ctx, body, &next, want, fn)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if next > before {
			// The attempt got further into the stream: recovery is
			// working, so grant it a fresh failure budget.
			fails = 0
		} else {
			fails++
			if fails > c.opt.MaxRetries {
				return fmt.Errorf("giving up after %d attempt(s) without progress: %w", fails, err)
			}
		}
		wait := retryAfter
		if wait <= 0 {
			wait = c.backoff(fails)
		}
		c.logf("retrying in %v (replica %d/%d delivered): %v", wait, next, want, err)
		if err := sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// attempt runs one POST, advancing *next past every newly delivered record.
// A non-zero retryAfter is the server's own backpressure hint and overrides
// the client's backoff.
func (c *Client) attempt(ctx context.Context, body []byte, next *int, want int, fn func(expt.ReplicaRecord, []byte)) (retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.opt.BaseURL, "/")+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, &permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	c.setQoSHeaders(ctx, req)
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		c.lastCache = resp.Header.Get("X-Popkit-Cache")
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusConflict,
		resp.StatusCode == http.StatusServiceUnavailable:
		// Backpressure (queue full), our own previous request still
		// winding down (job id busy), or a worker draining on SIGTERM:
		// all transient — honor the server's Retry-After.
		ra := parseRetryAfter(resp)
		return ra, fmt.Errorf("server busy (%s): %s", resp.Status, readErrorDoc(resp.Body))
	case resp.StatusCode >= 500:
		return 0, fmt.Errorf("server error (%s): %s", resp.Status, readErrorDoc(resp.Body))
	default:
		return 0, &permanentError{fmt.Errorf("request rejected (%s): %s", resp.Status, readErrorDoc(resp.Body))}
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		// In-band terminal error object ({"error":...}): the job failed
		// server-side after the 200 was committed. Retryable — a rerun (or
		// a journal resume) may get past it.
		var probe struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Error != "" {
			return 0, fmt.Errorf("job failed server-side: %s", probe.Error)
		}
		var rec expt.ReplicaRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, fmt.Errorf("undecodable stream line %.120q: %v", line, err)
		}
		switch {
		case rec.Replica < *next:
			// A resumed stream replays from the journal's start; skip what
			// we already delivered.
			continue
		case rec.Replica > *next:
			return 0, &permanentError{fmt.Errorf("stream gap: got replica %d, want %d", rec.Replica, *next)}
		}
		if rec.Err != "" {
			// Never deliver a failed replica: retry the job instead.
			return 0, fmt.Errorf("replica %d failed (%s): %s", rec.Replica, rec.ErrKind, rec.Err)
		}
		out := make([]byte, len(line)+1)
		copy(out, line)
		out[len(line)] = '\n'
		fn(rec, out)
		*next++
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("stream read: %w", err)
	}
	if *next < want {
		return 0, fmt.Errorf("stream ended early at replica %d of %d", *next, want)
	}
	return 0, nil
}

// setQoSHeaders stamps the admission-control headers on one attempt: the
// configured tenant, and — when ctx carries a deadline — the budget still
// remaining, in milliseconds. Because the header is computed per attempt
// from the live context, a caller that re-dispatches work under the same
// context (the cluster coordinator re-routing a shard after a worker died)
// automatically hands the next worker only what is left of the original
// deadline, never a fresh full timeout.
func (c *Client) setQoSHeaders(ctx context.Context, req *http.Request) {
	if c.opt.Tenant != "" {
		req.Header.Set("X-Popkit-Tenant", c.opt.Tenant)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set("X-Popkit-Deadline-Ms", strconv.FormatInt(ms, 10))
		}
	}
}

// backoff is BackoffBase·2^(fails-1) capped at BackoffMax, with ±25%
// deterministic jitter so a fleet of clients doesn't retry in lockstep.
func (c *Client) backoff(fails int) time.Duration {
	d := c.opt.BackoffBase
	for i := 1; i < fails && d < c.opt.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opt.BackoffMax {
		d = c.opt.BackoffMax
	}
	// splitmix64 step on the jitter stream.
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	q := d / 4
	if q > 0 {
		d = d - q + time.Duration(z%uint64(2*q))
	}
	return d
}

func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads the integer-seconds form of Retry-After (the only
// form popserved emits); 0 means absent or unparseable.
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0
	}
	return time.Duration(sec) * time.Second
}

// readErrorDoc extracts the {"error":...} body of a non-200 response,
// falling back to the raw bytes.
func readErrorDoc(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(bytes.TrimSpace(raw), &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(raw))
}
