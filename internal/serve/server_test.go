package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"popkit/internal/expt"
	"popkit/internal/qos"
)

func postSpec(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := MustNew(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func TestSimulateStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSpec(t, ts.URL, `{"protocol":"leader","n":256,"seed":9,"replicas":3}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var recs []expt.ReplicaRecord
	for sc.Scan() {
		var rec expt.ReplicaRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Replica != i || !rec.Converged || rec.Err != "" {
			t.Errorf("record %d: %+v", i, rec)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxN: 10000})
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"protocol":`},
		{"unknown field", `{"protocol":"leader","n":100,"wat":1}`},
		{"unknown protocol", `{"protocol":"nosuch","n":100}`},
		{"n too small", `{"protocol":"leader","n":1}`},
		{"n beyond cap", `{"protocol":"leader","n":20000}`},
		{"bad param", `{"protocol":"leader","n":100,"gap":5}`},
	}
	for _, c := range cases {
		resp := postSpec(t, ts.URL, c.body)
		var doc errorDoc
		err := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if err != nil || doc.Error == "" {
			t.Errorf("%s: error body missing (%v)", c.name, err)
		}
	}
	if got := s.Metrics().JobsRejectedInvalid.Load(); got != uint64(len(cases)) {
		t.Errorf("rejected-invalid counter = %d, want %d", got, len(cases))
	}

	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate: status %d, want 405", resp.StatusCode)
	}
}

// blockingRegistry registers a protocol whose replicas block until release
// is closed (or their context dies), for queue/cancellation tests.
func blockingRegistry(t *testing.T, started chan struct{}, release chan struct{}) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register(&Protocol{
		Name: "block",
		Kind: "test",
		Replica: func(ctx context.Context, spec expt.JobSpec, replica int, seed uint64) (expt.ReplicaRecord, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
				return expt.ReplicaRecord{
					Replica: replica, Protocol: spec.Protocol, N: spec.N,
					Seed: seed, Converged: true,
				}, nil
			case <-ctx.Done():
				return expt.ReplicaRecord{}, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	s, ts := newTestServer(t, Config{
		Registry:   blockingRegistry(t, started, release),
		Workers:    1,
		QueueDepth: 1,
	})

	// Job 1 occupies the only worker…
	go func() {
		resp := postSpec(t, ts.URL, `{"protocol":"block","n":10,"seed":1}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	<-started

	// …job 2 fills the queue…
	go func() {
		resp := postSpec(t, ts.URL, `{"protocol":"block","n":10,"seed":2}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// …job 3 must bounce with 429.
	resp := postSpec(t, ts.URL, `{"protocol":"block","n":10,"seed":3}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	} else if sec, err := strconv.Atoi(ra); err != nil || sec < 1 || sec > 60 {
		t.Errorf("429 Retry-After = %q, want integer seconds in [1, 60]", ra)
	}
	var doc errorDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Error == "" {
		t.Errorf("429 error body missing (%v)", err)
	}
	if got := s.Metrics().JobsRejectedFull.Load(); got != 1 {
		t.Errorf("rejected-full counter = %d, want 1", got)
	}
}

// TestClientDisconnectCancelsJob: a client that walks away mid-stream
// cancels its job — on one slot, and with a second slot lent to the job —
// and every slot is free again for the next job.
func TestClientDisconnectCancelsJob(t *testing.T) {
	for _, tc := range []struct {
		name              string
		workers, replicas int
	}{
		{"one slot", 1, 2},
		// The second slot is lent to the job: both slots hold one of its
		// replicas when the client goes.
		{"lent slot", 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			started := make(chan struct{}, 8)
			release := make(chan struct{})
			defer close(release)
			s, ts := newTestServer(t, Config{
				Registry: blockingRegistry(t, started, release),
				Workers:  tc.workers,
			})

			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate",
				strings.NewReader(fmt.Sprintf(`{"protocol":"block","n":10,"seed":1,"replicas":%d}`, tc.replicas)))
			errc := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				errc <- err
			}()
			for i := 0; i < tc.workers; i++ {
				<-started // every slot is running one of the job's replicas
			}
			cancel() // client walks away mid-stream
			<-errc

			deadline := time.Now().Add(5 * time.Second)
			for s.Metrics().JobsCancelled.Load() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("job not marked cancelled (cancelled=%d failed=%d completed=%d)",
						s.Metrics().JobsCancelled.Load(), s.Metrics().JobsFailed.Load(), s.Metrics().JobsCompleted.Load())
				}
				time.Sleep(time.Millisecond)
			}

			// Every slot must be free again: a job with one replica per
			// slot runs on all of them at once and completes.
			done := make(chan []byte, 1)
			go func() {
				done <- postJob(t, ts.URL, "", fmt.Sprintf(`{"protocol":"block","n":10,"seed":4,"replicas":%d}`, tc.workers))
			}()
			for i := 0; i < tc.workers; i++ {
				select {
				case <-started:
				case <-time.After(5 * time.Second):
					t.Fatalf("post-cancel job started on %d of %d slots", i, tc.workers)
				}
			}
			for i := 0; i < tc.workers; i++ {
				release <- struct{}{}
			}
			if body := <-done; bytes.Count(body, []byte(`"converged":true`)) != tc.workers {
				t.Fatalf("post-cancel job failed: %s", body)
			}
			if got := s.Metrics().JobsCancelled.Load(); got != 1 {
				t.Fatalf("jobs_cancelled = %d, want exactly 1", got)
			}
		})
	}
}

// TestJobTimeoutSurfacesError: a job outliving JobTimeout is cancelled and
// reports the deadline in-band.
func TestJobTimeoutSurfacesError(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	defer close(release)
	s, ts := newTestServer(t, Config{
		Registry:   blockingRegistry(t, started, release),
		Workers:    1,
		JobTimeout: 50 * time.Millisecond,
	})
	resp := postSpec(t, ts.URL, `{"protocol":"block","n":10,"seed":1}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("deadline")) {
		t.Fatalf("timeout not surfaced in stream: %s", body)
	}
	if got := s.Metrics().JobsCancelled.Load(); got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
}

// TestFailedReplicaCountsJobFailed: a job whose replica fails ends with the
// in-band error line and counts jobs_failed once, neither completed nor
// cancelled.
func TestFailedReplicaCountsJobFailed(t *testing.T) {
	reg := NewRegistry()
	err := reg.Register(&Protocol{
		Name: "fail",
		Kind: "test",
		Replica: func(context.Context, expt.JobSpec, int, uint64) (expt.ReplicaRecord, error) {
			return expt.ReplicaRecord{}, errors.New("replica failed on purpose")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Registry: reg, Workers: 1})
	resp := postSpec(t, ts.URL, `{"protocol":"fail","n":10,"seed":1,"replicas":2}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte(`{"error":"replica 0`)) {
		t.Fatalf("failure not surfaced in stream: %s", body)
	}
	m := s.Metrics()
	if f, c, x := m.JobsFailed.Load(), m.JobsCompleted.Load(), m.JobsCancelled.Load(); f != 1 || c != 0 || x != 0 {
		t.Fatalf("jobs failed/completed/cancelled = %d/%d/%d, want 1/0/0", f, c, x)
	}
}

// TestHTTPMatchesDirectRun is the determinism-across-the-network-boundary
// guarantee: the HTTP stream must be byte-identical to what the registry
// (and therefore popsim -ndjson, which calls the same code) produces.
func TestHTTPMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"protocol":"exactmajority","n":2000,"seed":42,"replicas":4,"gap":1}`

	resp := postSpec(t, ts.URL, body)
	httpBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, httpBytes)
	}

	spec := expt.JobSpec{Protocol: "exactmajority", N: 2000, Seed: 42, Replicas: 4, Gap: 1}
	proto, err := NewRegistry().Normalize(&spec, 5_000_000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := proto.Run(context.Background(), spec, RunOptions{Workers: 1}, func(r expt.ReplicaRecord) {
		line, _ := r.MarshalLine()
		cli.Write(line)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(httpBytes, cli.Bytes()) {
		t.Fatalf("HTTP and direct run diverge:\nHTTP:\n%s\nCLI:\n%s", httpBytes, cli.Bytes())
	}
}

// TestProtocolsEndpoint pins the GET /v1/protocols document byte for byte:
// clients discover workloads from it, so the catalogue's names, kinds,
// params, state counts and state-rich flags, and their order, are part of
// the wire contract. The body was recorded before the registry moved into
// the protocol catalogue.
func TestProtocolsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != wantProtocolsBody {
		t.Fatalf("GET /v1/protocols:\n%s\nwant\n%s", body, wantProtocolsBody)
	}
}

// TestProtocolsRenderedOnce checks that GET /v1/protocols builds its body
// on the first request only: a second GET calls no entry's States.
func TestProtocolsRenderedOnce(t *testing.T) {
	var calls atomic.Int32
	reg := NewRegistry()
	err := reg.Register(&Protocol{
		Name: "counting", Kind: "test",
		States: func(int) uint64 { calls.Add(1); return 2 },
		Replica: func(context.Context, expt.JobSpec, int, uint64) (expt.ReplicaRecord, error) {
			return expt.ReplicaRecord{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Registry: reg})
	var bodies [2][]byte
	for i := range bodies {
		resp, err := http.Get(ts.URL + "/v1/protocols")
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("after GET %d: States called %d times, want 1", i+1, got)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Contains(bodies[0], []byte(`"counting"`)) {
		t.Errorf("GET bodies differ or miss the entry:\n%s\n%s", bodies[0], bodies[1])
	}
}

const wantProtocolsBody = `{
  "protocols": [
    {
      "name": "aagmajority",
      "description": "phase-ratcheted exact majority [arXiv:1704.04947]: space-optimal always-correct majority",
      "kind": "counted",
      "params": [
        "gap",
        "max_rounds"
      ],
      "states": 52
    },
    {
      "name": "approxmajority",
      "description": "3-state approximate majority [AAE08a] (§1.2 / E11 baseline)",
      "kind": "counted",
      "params": [
        "gap",
        "max_rounds"
      ],
      "states": 4
    },
    {
      "name": "coalescence",
      "description": "folklore coalescence leader election, Θ(n) rounds (E11 baseline)",
      "kind": "counted",
      "params": [
        "max_rounds"
      ],
      "states": 2
    },
    {
      "name": "exactmajority",
      "description": "4-state exact majority [DV12], Θ(n log n) rounds (the E11 load-test workload)",
      "kind": "counted",
      "params": [
        "gap",
        "max_rounds"
      ],
      "states": 4
    },
    {
      "name": "gs18leader",
      "description": "junta-clocked leader election [arXiv:1802.06867]: polylog-time w.h.p., phase-clock driven elimination",
      "kind": "counted",
      "params": [
        "max_rounds"
      ],
      "states": 1073741824,
      "state_rich": true
    },
    {
      "name": "gsexactmajority",
      "description": "cancelling–doubling exact majority [arXiv:2011.07392]: always correct at any gap, O(log n) states",
      "kind": "counted",
      "params": [
        "gap",
        "max_rounds"
      ],
      "states": 28
    },
    {
      "name": "leader",
      "description": "LeaderElection (§3.1): w.h.p. unique leader in O(log² n) rounds",
      "kind": "framework",
      "params": [
        "max_iters"
      ],
      "states": 8
    },
    {
      "name": "leaderexact",
      "description": "LeaderElectionExact (§6.1): always-correct unique leader",
      "kind": "framework",
      "params": [
        "max_iters"
      ],
      "states": 64
    },
    {
      "name": "majority",
      "description": "Majority (§3.2): w.h.p. exact majority for any gap ≥ 1",
      "kind": "framework",
      "params": [
        "gap",
        "max_iters"
      ],
      "states": 64
    },
    {
      "name": "majorityexact",
      "description": "MajorityExact (§6.2): always-correct exact majority",
      "kind": "framework",
      "params": [
        "gap",
        "max_iters"
      ],
      "states": 256
    },
    {
      "name": "plurality",
      "description": "Plurality consensus (§1.1): l-colour plurality with O(l²) states",
      "kind": "framework",
      "params": [
        "colours",
        "max_iters"
      ],
      "states": 262144
    }
  ]
}
`

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSpec(t, ts.URL, `{"protocol":"leader","n":64,"seed":1,"replicas":2}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", hz.StatusCode, health)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobsAccepted != 1 || snap.JobsCompleted != 1 || snap.ReplicasCompleted != 2 {
		t.Errorf("job counters wrong: %+v", snap)
	}
	if snap.QueueCapacity == 0 || snap.UptimeSec <= 0 {
		t.Errorf("gauges missing: %+v", snap)
	}
	sim, ok := snap.Latency["simulate"]
	if !ok || sim.Count != 1 || sim.P50MS <= 0 {
		t.Errorf("simulate latency histogram wrong: %+v", snap.Latency)
	}
}

// TestPoolDrainAndAbort: close() must wait for in-flight jobs; abort()
// must break a stuck drain.
func TestPoolDrainAndAbort(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	reg := blockingRegistry(t, started, release)
	m := NewMetrics()
	p := newPool(qos.QueueConfig{PerTenantDepth: 4}, 1, 0, m, nil, nil)
	proto, _ := reg.Lookup("block")
	j := &queuedJob{Job: newJob(&Job{
		Spec:  expt.JobSpec{Protocol: "block", N: 10, Seed: 1, Replicas: 1},
		Proto: proto,
		Ctx:   context.Background(),
	}, m.FrontMetrics, nil, nil)}
	if err := p.tryEnqueue(j); err != nil {
		t.Fatal(err)
	}
	<-started

	closed := make(chan struct{})
	go func() { p.close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("close returned with a job in flight")
	case <-time.After(50 * time.Millisecond):
	}

	p.abort() // drain deadline blown: force the job down
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not return after abort")
	}
	if got := m.JobsCancelled.Load(); got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
}

// TestPoolCloseWakesEverySlot: close() returns however its wakeup lands
// against the slots' claims. Each iteration builds a two-slot pool,
// enqueues a one-replica job (one slot dispatches it while the other looks
// for a replica to lend), yields a varying number of times so close() lands
// at a different point of that, and closes. A slot that missed close()'s
// wakeup would park for good, and close() would never return.
func TestPoolCloseWakesEverySlot(t *testing.T) {
	proto := &Protocol{
		Name: "nop",
		Kind: "test",
		Replica: func(_ context.Context, spec expt.JobSpec, replica int, seed uint64) (expt.ReplicaRecord, error) {
			return expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed, Converged: true}, nil
		},
	}
	m, model, qm := NewMetrics(), qos.MustNewModel(qos.ModelOptions{}), qos.NewMetrics(nil)
	for i := 0; i < 20000; i++ {
		p := newPool(qos.QueueConfig{}, 2, 0, m, model, qm)
		j := &queuedJob{Job: newJob(&Job{
			Spec:  expt.JobSpec{Protocol: "nop", N: 10, Seed: uint64(i), Replicas: 1},
			Proto: proto,
			Ctx:   context.Background(),
		}, m.FrontMetrics, nil, nil)}
		if err := p.tryEnqueue(j); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < i%200; k++ {
			runtime.Gosched()
		}
		closed := make(chan struct{})
		go func() { p.close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: close() blocked for 2s; a slot missed its wakeup", i)
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50MS > 5 {
		t.Errorf("p50 = %v ms, want ~1-2ms bucket", s.P50MS)
	}
	if s.P99MS < 50 {
		t.Errorf("p99 = %v ms, want ≥ the 100ms bucket", s.P99MS)
	}
	if s.MeanMS < 5 || s.MeanMS > 20 {
		t.Errorf("mean = %v ms, want ≈ 10.9", s.MeanMS)
	}
}
