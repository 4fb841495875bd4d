package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"popkit/internal/expt"
	"popkit/internal/serve"
)

// testSpec is the job every byte-identity test runs: a counted protocol
// (fast per replica) with enough replicas to spread across shards.
const testSpecJSON = `{"protocol":"exactmajority","n":400,"seed":7,"replicas":12,"gap":2}`

// newWorker boots an in-process popserved and returns its base URL.
func newWorker(t *testing.T) string {
	t.Helper()
	return newPopserved(t, serve.Config{QueueDepth: 16, Workers: 2})
}

// newPopserved boots an in-process popserved with cfg and returns its base
// URL.
func newPopserved(t *testing.T, cfg serve.Config) string {
	t.Helper()
	s := serve.MustNew(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// newCoordinator builds a probed coordinator (no background loop — tests
// drive probes explicitly) and its HTTP front end.
func newCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.ProbeNow()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Stop()
	})
	return c, ts.URL
}

// post runs one job and returns (status, body bytes).
func post(t *testing.T, base, path, spec string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, body
}

// singleNodeBytes is the ground truth: the same spec through one popserved.
func singleNodeBytes(t *testing.T, spec string) []byte {
	t.Helper()
	status, body := post(t, newWorker(t), "/v1/simulate", spec)
	if status != http.StatusOK {
		t.Fatalf("single-node run: status %d: %s", status, body)
	}
	if bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("single-node run failed in-band: %s", body)
	}
	return body
}

func TestClusterByteIdenticalAcrossShardPlans(t *testing.T) {
	want := singleNodeBytes(t, testSpecJSON)
	for _, tc := range []struct {
		workers   int
		shardSize int
	}{
		{1, 0}, {2, 0}, {3, 0}, {2, 1}, {3, 5}, {2, 12},
	} {
		t.Run(fmt.Sprintf("workers=%d shard=%d", tc.workers, tc.shardSize), func(t *testing.T) {
			urls := make([]string, tc.workers)
			for i := range urls {
				urls[i] = newWorker(t)
			}
			_, base := newCoordinator(t, Config{Workers: urls, ShardSize: tc.shardSize})
			status, got := post(t, base, "/v1/jobs", testSpecJSON)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cluster output differs from single node:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

func TestSimulateAliasMatchesJobs(t *testing.T) {
	want := singleNodeBytes(t, testSpecJSON)
	_, base := newCoordinator(t, Config{Workers: []string{newWorker(t), newWorker(t)}})
	status, got := post(t, base, "/v1/simulate", testSpecJSON)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("alias output differs (status %d)", status)
	}
}

// flakyWorker fronts a real popserved handler with a kill switch: after
// `lines` NDJSON lines have been streamed in total, the worker "dies" — the
// in-flight connection is cut mid-stream and every later request (health
// probes included) is refused — until revive() flips it back.
type flakyWorker struct {
	inner http.Handler
	lines atomic.Int64
	dead  atomic.Bool
}

func (f *flakyWorker) revive() {
	f.lines.Store(1 << 30)
	f.dead.Store(false)
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		http.Error(w, "worker is dead", http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(&killWriter{ResponseWriter: w, f: f}, r)
}

// killWriter counts streamed lines and pulls the kill switch mid-write.
type killWriter struct {
	http.ResponseWriter
	f *flakyWorker
}

func (k *killWriter) Write(p []byte) (int, error) {
	if n := int64(bytes.Count(p, []byte{'\n'})); n > 0 {
		if k.f.lines.Add(-n) < 0 {
			k.f.dead.Store(true)
			panic(http.ErrAbortHandler) // cut the connection mid-stream
		}
	}
	return k.ResponseWriter.Write(p)
}

func (k *killWriter) Flush() {
	if fl, ok := k.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// newFlakyWorker boots a popserved that dies after streaming `lines` lines.
func newFlakyWorker(t *testing.T, lines int64) (*flakyWorker, string) {
	t.Helper()
	s := serve.MustNew(serve.Config{QueueDepth: 16, Workers: 2})
	f := &flakyWorker{inner: s.Handler()}
	f.lines.Store(lines)
	ts := httptest.NewServer(f)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return f, ts.URL
}

// TestWorkerLossRedispatchesShard is the fail-over contract: a worker that
// dies mid-stream loses its shard to another worker, which resumes at the
// exact replica the stream stopped at (the shard spec's start window),
// and the merged output is still byte-identical to a single-node run.
func TestWorkerLossRedispatchesShard(t *testing.T) {
	want := singleNodeBytes(t, testSpecJSON)
	_, flakyURL := newFlakyWorker(t, 3)
	c, base := newCoordinator(t, Config{
		Workers:       []string{newWorker(t), flakyURL},
		ShardSize:     6,
		ClientRetries: 0, // fail over immediately rather than hammering the corpse
	})
	status, got := post(t, base, "/v1/jobs", testSpecJSON)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs after worker loss:\n%s\nvs\n%s", got, want)
	}
	if re := c.Metrics().ShardsRedispatched.Load(); re == 0 {
		t.Fatal("no shard was re-dispatched — the flaky worker never fired")
	}
	lost := false
	for _, w := range c.Workers() {
		if w.URL == flakyURL && !w.Live {
			lost = true
		}
	}
	if !lost {
		t.Fatalf("flaky worker still marked live: %+v", c.Workers())
	}
}

// TestCoordinatorJournalResume proves coordinator checkpointing: a job that
// dies with every worker down leaves a journaled prefix, and a fresh
// coordinator (a restart) re-POSTed the same (job_id, spec) replays the
// prefix and computes only the rest — byte-identical to a clean run.
func TestCoordinatorJournalResume(t *testing.T) {
	spec := `{"protocol":"exactmajority","n":400,"seed":7,"replicas":12,"gap":2,"job_id":"e2e"}`
	plain := testSpecJSON // same job without the id
	want := singleNodeBytes(t, plain)
	dir := t.TempDir()

	f, flakyURL := newFlakyWorker(t, 4)
	_, base := newCoordinator(t, Config{
		Workers:         []string{flakyURL},
		ShardSize:       12, // one shard so the kill leaves a clean prefix
		ClientRetries:   0,
		DispatchRetries: 1,
		Front:           serve.Config{JournalDir: dir},
	})
	status, body := post(t, base, "/v1/jobs", spec)
	if status != http.StatusOK {
		t.Fatalf("first attempt: status %d: %s", status, body)
	}
	if !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("first attempt should have failed in-band (worker died):\n%s", body)
	}
	if !bytes.HasPrefix(want, bytes.TrimSuffix(body, lastLine(body))) {
		t.Fatalf("failed run's record prefix is not a prefix of the clean run:\n%s", body)
	}

	// "Restart": a brand-new coordinator over the same journal directory,
	// with the worker back up.
	f.revive()
	c2, base2 := newCoordinator(t, Config{
		Workers: []string{flakyURL},
		Front:   serve.Config{JournalDir: dir},
	})
	status, got := post(t, base2, "/v1/jobs", spec)
	if status != http.StatusOK {
		t.Fatalf("resume: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from clean run:\n%s\nvs\n%s", got, want)
	}
	if c2.Metrics().JobsResumed.Load() != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", c2.Metrics().JobsResumed.Load())
	}

	// A third POST replays everything from disk without touching a worker.
	f.dead.Store(true)
	status, again := post(t, base2, "/v1/jobs", spec)
	if status != http.StatusOK || !bytes.Equal(again, want) {
		t.Fatalf("full-journal replay differs (status %d)", status)
	}
}

// lastLine returns the final newline-terminated line of b.
func lastLine(b []byte) []byte {
	trimmed := bytes.TrimSuffix(b, []byte{'\n'})
	i := bytes.LastIndexByte(trimmed, '\n')
	return b[i+1:]
}

func TestRegistrationLifecycle(t *testing.T) {
	c, base := newCoordinator(t, Config{})

	// No workers: jobs are rejected with a retryable 503.
	status, body := post(t, base, "/v1/jobs", testSpecJSON)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("no-worker job: status %d: %s", status, body)
	}
	if c.Metrics().JobsRejectedNoWorkers.Load() != 1 {
		t.Fatal("no-worker rejection not counted")
	}

	// Degraded healthz while the fleet is dark.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dark-fleet healthz: status %d", resp.StatusCode)
	}

	// Register a live worker at runtime; it is routable immediately.
	status, body = post(t, base, "/v1/workers", fmt.Sprintf(`{"url":%q}`, newWorker(t)))
	if status != http.StatusOK {
		t.Fatalf("register: status %d: %s", status, body)
	}
	var listing struct {
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("bad listing: %v", err)
	}
	if len(listing.Workers) != 1 || !listing.Workers[0].Live {
		t.Fatalf("worker not live after registration: %+v", listing.Workers)
	}

	want := singleNodeBytes(t, testSpecJSON)
	status, got := post(t, base, "/v1/jobs", testSpecJSON)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-registration job differs (status %d)", status)
	}

	// Bad registrations are rejected.
	for _, bad := range []string{`{"url":"ftp://x"}`, `{"url":""}`, `{"wat":1}`} {
		if status, _ := post(t, base, "/v1/workers", bad); status != http.StatusBadRequest {
			t.Errorf("registration %s: status %d, want 400", bad, status)
		}
	}
}

// answer is the part of a response a drop-in replacement must reproduce.
type answer struct {
	status                   int
	contentType, allow, body string
}

// ask sends one request, with the tenant header when tenant is set.
func ask(t *testing.T, method, url, tenant, body string) answer {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Popkit-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Allow"), string(b)}
}

// TestValidationAndMethodErrors proves popcoord is a drop-in for popserved
// on every rejection the front makes: each case goes to the coordinator's
// /v1/jobs and to a popserved's /v1/simulate, with the same cost budget,
// and both answer with the same status, Content-Type, Allow and body
// bytes. GET /v1/protocols is byte-identical too.
func TestValidationAndMethodErrors(t *testing.T) {
	_, base := newCoordinator(t, Config{Workers: []string{newWorker(t)}, Front: serve.Config{CostBudget: time.Minute}})
	solo := newPopserved(t, serve.Config{CostBudget: time.Minute})
	for _, tc := range []struct {
		name, method, tenant, body string
		want                       int
	}{
		{"malformed", http.MethodPost, "", `{"protocol":`, http.StatusBadRequest},
		{"unknown protocol", http.MethodPost, "", `{"protocol":"nosuch","n":100}`, http.StatusBadRequest},
		{"start with job_id", http.MethodPost, "", `{"protocol":"leader","n":100,"replicas":4,"start":2,"job_id":"x"}`, http.StatusBadRequest},
		{"start out of range", http.MethodPost, "", `{"protocol":"leader","n":100,"replicas":4,"start":4}`, http.StatusBadRequest},
		{"wrong method", http.MethodGet, "", "", http.StatusMethodNotAllowed},
		{"bad tenant", http.MethodPost, "no spaces", testSpecJSON, http.StatusBadRequest},
		{"unknown spec field", http.MethodPost, "", `{"protocol":"leader","n":100,"wat":1}`, http.StatusBadRequest},
		{"job_id without -journal", http.MethodPost, "", `{"protocol":"leader","n":100,"job_id":"x"}`, http.StatusBadRequest},
		{"over budget", http.MethodPost, "acme", `{"protocol":"exactmajority","n":2000000,"seed":1}`, http.StatusRequestEntityTooLarge},
	} {
		got := ask(t, tc.method, base+"/v1/jobs", tc.tenant, tc.body)
		if got.status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got.status, tc.want)
		}
		if want := ask(t, tc.method, solo+"/v1/simulate", tc.tenant, tc.body); got != want {
			t.Errorf("%s: coordinator answered %+v, popserved %+v", tc.name, got, want)
		}
	}
	got := ask(t, http.MethodGet, base+"/v1/protocols", "", "")
	if want := ask(t, http.MethodGet, solo+"/v1/protocols", "", ""); got != want || got.status != http.StatusOK {
		t.Errorf("GET /v1/protocols: coordinator answered %+v, popserved %+v", got, want)
	}
}

// TestNegativeLimitsRejected: both binaries refuse a negative limit where
// the shared front fills its settings, naming the flag — a negative
// -max-sweep-points would otherwise lift the sweep grid cap.
func TestNegativeLimitsRejected(t *testing.T) {
	for _, tc := range []struct {
		flag  string
		front serve.Config
	}{
		{"-job-timeout", serve.Config{JobTimeout: -time.Second}},
		{"-min-job-timeout", serve.Config{MinJobTimeout: -time.Second}},
		{"-cost-budget", serve.Config{CostBudget: -time.Second}},
		{"-max-sweep-points", serve.Config{MaxSweepPoints: -1}},
	} {
		if s, err := serve.New(tc.front); !errors.Is(err, serve.ErrNegativeLimit) || !strings.Contains(err.Error(), tc.flag) {
			if s != nil {
				s.Close()
			}
			t.Errorf("popserved with negative %s: err = %v, want %v naming the flag", tc.flag, err, serve.ErrNegativeLimit)
		}
		if c, err := New(Config{Front: tc.front}); !errors.Is(err, serve.ErrNegativeLimit) || !strings.Contains(err.Error(), tc.flag) {
			if c != nil {
				c.Stop()
			}
			t.Errorf("popcoord with negative %s: err = %v, want %v naming the flag", tc.flag, err, serve.ErrNegativeLimit)
		}
	}
}

// TestNewRejectsPoolSettings: a coordinator has no job pool, so a Front
// that sets one of the pool's fields is a configuration error, as is one
// that sets a front field only popserved takes.
func TestNewRejectsPoolSettings(t *testing.T) {
	for name, front := range map[string]serve.Config{
		"InteractiveMax": {InteractiveMax: time.Second},
		"WhaleMin":       {WhaleMin: time.Minute},
		"EnablePprof":    {EnablePprof: true},
		"QueueDepth":     {QueueDepth: 1},
		"Workers":        {Workers: 1},
		"MaxRetries":     {MaxRetries: 1},
		"TenantWeights":  {TenantWeights: map[string]int{"a": 1}},
		"MaxTenants":     {MaxTenants: 1},
		"WhalePerTenant": {WhalePerTenant: 1},
		"WhaleGlobal":    {WhaleGlobal: 1},
	} {
		if c, err := New(Config{Front: front}); err == nil {
			c.Stop()
			t.Errorf("New with Front.%s set: no error", name)
		}
	}
}

// TestZeroClientRetriesMeansOneAttempt: ClientRetries 0 gives each dispatch
// one POST, so a one-replica job against a worker that answers probes but
// fails every POST makes DispatchRetries + 1 attempts in all.
func TestZeroClientRetriesMeansOneAttempt(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
			serve.WriteError(w, http.StatusInternalServerError, "boom")
		}
	}))
	t.Cleanup(ts.Close)
	_, base := newCoordinator(t, Config{Workers: []string{ts.URL}, ClientRetries: 0})
	status, body := post(t, base, "/v1/jobs", `{"protocol":"leader","n":100,"seed":1,"replicas":1}`)
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("status %d, want 200 with an in-band error: %s", status, body)
	}
	if got := posts.Load(); got != 5 {
		t.Fatalf("worker saw %d POSTs, want 5 (DispatchRetries 4, plus the first dispatch)", got)
	}
}

func TestMetricsEndpoints(t *testing.T) {
	_, base := newCoordinator(t, Config{Workers: []string{newWorker(t), newWorker(t)}})
	if status, _ := post(t, base, "/v1/jobs", testSpecJSON); status != http.StatusOK {
		t.Fatalf("job: status %d", status)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("bad metrics JSON: %v", err)
	}
	if snap.JobsCompleted != 1 || snap.ShardsDispatched == 0 || snap.RecordsMerged != 12 ||
		snap.Workers != 2 || snap.WorkersLive != 2 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}

	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"popkit_cluster_shards_dispatched_total",
		"popkit_cluster_workers_live 2",
		"popkit_cluster_shard_duration_seconds",
		`popkit_cluster_http_request_duration_seconds_bucket{endpoint="jobs"`,
	} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("prom exposition missing %q", series)
		}
	}

	resp, err = http.Get(base + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	plist, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(plist), `"exactmajority"`) {
		t.Fatalf("protocols listing missing exactmajority: %s", plist)
	}
}

// outcomeRegistry registers two test protocols on worker and coordinator
// alike: "fail", whose replicas always fail, and "block", whose replicas
// run until their context ends.
func outcomeRegistry(t *testing.T) *serve.Registry {
	t.Helper()
	reg := serve.NewRegistry()
	for _, p := range []*serve.Protocol{
		{Name: "fail", Kind: "test", Replica: func(context.Context, expt.JobSpec, int, uint64) (expt.ReplicaRecord, error) {
			return expt.ReplicaRecord{}, errors.New("replica failed on purpose")
		}},
		{Name: "block", Kind: "test", Replica: func(ctx context.Context, _ expt.JobSpec, _ int, _ uint64) (expt.ReplicaRecord, error) {
			<-ctx.Done()
			return expt.ReplicaRecord{}, ctx.Err()
		}},
	} {
		if err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// checkOutcomes fails t unless the coordinator counted jobs as failed,
// completed and cancelled as given.
func checkOutcomes(t *testing.T, c *Coordinator, failed, completed, cancelled uint64) {
	t.Helper()
	m := c.Metrics()
	if f, d, x := m.JobsFailed.Load(), m.JobsCompleted.Load(), m.JobsCancelled.Load(); f != failed || d != completed || x != cancelled {
		t.Fatalf("jobs failed/completed/cancelled = %d/%d/%d, want %d/%d/%d", f, d, x, failed, completed, cancelled)
	}
}

// TestFailedShardCountsJobFailed: a job whose replica fails on every
// dispatch ends with the in-band error line and counts jobs_failed once,
// neither completed nor cancelled.
func TestFailedShardCountsJobFailed(t *testing.T) {
	reg := outcomeRegistry(t)
	c, base := newCoordinator(t, Config{
		Front:           serve.Config{Registry: reg},
		Workers:         []string{newPopserved(t, serve.Config{Registry: reg, Workers: 1})},
		ClientRetries:   1,
		DispatchRetries: 1,
	})
	status, body := post(t, base, "/v1/jobs", `{"protocol":"fail","n":10,"seed":1,"replicas":2}`)
	if status != http.StatusOK || !bytes.Contains(lastLine(body), []byte(`"error"`)) {
		t.Fatalf("status %d, want 200 ending in an in-band error: %s", status, body)
	}
	checkOutcomes(t, c, 1, 0, 0)
}

// TestDeadlineCountsJobCancelled: a job that runs out its deadline counts
// jobs_cancelled once, neither completed nor failed.
func TestDeadlineCountsJobCancelled(t *testing.T) {
	reg := outcomeRegistry(t)
	c, base := newCoordinator(t, Config{
		Front:   serve.Config{Registry: reg, JobTimeout: 200 * time.Millisecond},
		Workers: []string{newPopserved(t, serve.Config{Registry: reg, Workers: 1})},
	})
	status, body := post(t, base, "/v1/jobs", `{"protocol":"block","n":10,"seed":1,"replicas":1}`)
	if status != http.StatusOK || !bytes.Contains(body, []byte("deadline")) {
		t.Fatalf("status %d, want 200 with the deadline in-band: %s", status, body)
	}
	checkOutcomes(t, c, 0, 0, 1)
}

// TestProbeLoopRevivesWorker covers Start's background sweep end to end: a
// worker marked down by a dispatch failure comes back once its process
// answers probes again.
func TestProbeLoopRevivesWorker(t *testing.T) {
	f, flakyURL := newFlakyWorker(t, 0) // dies on the first streamed line
	c, base := newCoordinator(t, Config{
		Workers:         []string{flakyURL},
		ClientRetries:   0,
		DispatchRetries: 1,
		ProbeInterval:   20 * time.Millisecond,
	})
	c.Start()
	// Depending on whether the initial probe or the first shard kills the
	// worker, this lands as a 503 (no live workers) or a 200 with an in-band
	// error — either way the job must not succeed.
	status, body := post(t, base, "/v1/jobs", testSpecJSON)
	if status == http.StatusOK && !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("job against dying worker succeeded: status %d: %s", status, body)
	}

	f.revive()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, live := workerCounts(c); live == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never revived the worker: %+v", c.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := singleNodeBytes(t, testSpecJSON)
	status, got := post(t, base, "/v1/jobs", testSpecJSON)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-revival job differs (status %d)", status)
	}
}

func workerCounts(c *Coordinator) (total, live int) {
	for _, w := range c.Workers() {
		total++
		if w.Live {
			live++
		}
	}
	return total, live
}
