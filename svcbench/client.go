package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"popkit/internal/expt"
)

// loadClient is the closed-loop generator: one connection, one request
// outstanding. It is plain net/http with no retries, so every failure is
// counted rather than retried away.
type loadClient struct {
	hc  *http.Client
	url string
}

func newLoadClient(base string) *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &loadClient{hc: &http.Client{Transport: tr}, url: base + "/v1/simulate"}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status  int
	cache   string
	body    []byte
	latency time.Duration
}

// post sends one spec and reads the whole stream. The latency runs from
// sending the POST to the last byte of the body.
func (c *loadClient) post(spec expt.JobSpec) (reply, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return reply{}, fmt.Errorf("read body: %w", err)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Popkit-Cache"), body: data, latency: lat}, nil
}

// checkBody verifies one job stream: status 200, exactly one converged
// record per replica in replica order, and no error record. It returns the
// sum of the records' interactions.
func checkBody(spec expt.JobSpec, status int, body []byte) (uint64, error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", status, body)
	}
	var sum uint64
	k := 0
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			return 0, fmt.Errorf("record %d: unterminated line", k)
		}
		var rec expt.ReplicaRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, fmt.Errorf("record %d: %w", k, err)
		}
		switch {
		case rec.Err != "":
			return 0, fmt.Errorf("record %d: err record: %s", k, rec.Err)
		case rec.Replica != k || rec.Protocol != spec.Protocol || rec.N != spec.N:
			return 0, fmt.Errorf("record %d: got replica %d of %s n=%d", k, rec.Replica, rec.Protocol, rec.N)
		case !rec.Converged:
			return 0, fmt.Errorf("record %d: not converged", k)
		}
		sum += rec.Interactions
		k++
	}
	if k != spec.Replicas {
		return 0, fmt.Errorf("short stream: %d of %d records (trailing error object?)", k, spec.Replicas)
	}
	return sum, nil
}
