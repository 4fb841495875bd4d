package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"popkit/internal/serve"
)

// headerRecorder collects the QoS headers of every /v1/simulate dispatch
// across all workers, in arrival order.
type headerRecorder struct {
	mu        sync.Mutex
	deadlines []int64
	tenants   []string
}

func (h *headerRecorder) record(r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ms, _ := strconv.ParseInt(r.Header.Get("X-Popkit-Deadline-Ms"), 10, 64)
	h.deadlines = append(h.deadlines, ms)
	h.tenants = append(h.tenants, r.Header.Get("X-Popkit-Tenant"))
}

func (h *headerRecorder) snapshot() ([]int64, []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.deadlines...), append([]string(nil), h.tenants...)
}

// recordedWorker fronts a real popserved, recording the QoS headers of
// every simulate dispatch. Arming it (arm) turns it into a flaky worker: a
// total budget of streamed lines, after which the in-flight connection is
// cut (with a small pause first, so the next dispatch observably burns
// deadline budget) and every later request — health probes included — is
// refused, exactly like a killed process.
type recordedWorker struct {
	inner http.Handler
	rec   *headerRecorder
	lines atomic.Int64
	dead  atomic.Bool
}

func (d *recordedWorker) arm(lines int64) { d.lines.Store(lines) }

func (d *recordedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.dead.Load() {
		http.Error(w, "worker is dead", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/v1/simulate" || r.URL.Path == "/v1/jobs" {
		d.rec.record(r)
	}
	d.inner.ServeHTTP(&recCutter{ResponseWriter: w, d: d}, r)
}

// recCutter charges streamed NDJSON lines against the worker's budget and
// pulls the kill switch mid-write when it runs out.
type recCutter struct {
	http.ResponseWriter
	d *recordedWorker
}

func (k *recCutter) Write(p []byte) (int, error) {
	if n := int64(bytes.Count(p, []byte{'\n'})); n > 0 {
		if k.d.lines.Add(-n) < 0 {
			k.d.dead.Store(true)
			// Burn a visible slice of the deadline before dying so the
			// re-dispatch header is strictly smaller even at ms resolution.
			time.Sleep(20 * time.Millisecond)
			panic(http.ErrAbortHandler)
		}
	}
	return k.ResponseWriter.Write(p)
}

func (k *recCutter) Flush() {
	if fl, ok := k.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func newRecordedWorker(t *testing.T, rec *headerRecorder) (*recordedWorker, string) {
	t.Helper()
	s := serve.MustNew(serve.Config{QueueDepth: 16, Workers: 2})
	d := &recordedWorker{inner: s.Handler(), rec: rec}
	d.lines.Store(1 << 30)
	ts := httptest.NewServer(d)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return d, ts.URL
}

// postTenant posts a job with the tenant header set.
func postTenant(t *testing.T, base, path, tenant, spec string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Popkit-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestShardRedispatchInheritsDeadline is the deadline-propagation contract:
// the coordinator derives one wall-clock budget per job, stamps the
// REMAINING budget on every shard dispatch via X-Popkit-Deadline-Ms, and a
// shard re-routed after its worker died mid-stream inherits what is left —
// each successive dispatch's header is strictly smaller, never a fresh full
// timeout. The tenant rides along on every dispatch, and the merged output
// stays byte-identical to a single-node run despite two worker deaths.
func TestShardRedispatchInheritsDeadline(t *testing.T) {
	want := singleNodeBytes(t, testSpecJSON)
	rec := &headerRecorder{}
	// The worker with the lexicographically smaller URL wins the idle
	// tie-break in pick(), so arming that one guarantees it receives the
	// shard first, dies 3 lines in, and the shard re-dispatches to the
	// healthy survivor.
	wa, urlA := newRecordedWorker(t, rec)
	wb, urlB := newRecordedWorker(t, rec)
	if urlA < urlB {
		wa.arm(3)
	} else {
		wb.arm(3)
	}
	c, base := newCoordinator(t, Config{
		Workers:   []string{urlA, urlB},
		ShardSize: 12, // one shard, so the deadline chain is linear
		Front:     serve.Config{JobTimeout: 8 * time.Second},
	})
	status, got := post(t, base, "/v1/jobs", testSpecJSON)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs after worker deaths:\n%s\nvs\n%s", got, want)
	}
	if c.Metrics().ShardsRedispatched.Load() == 0 {
		t.Fatal("no shard was re-dispatched — the die-once workers never fired")
	}

	deadlines, _ := rec.snapshot()
	if len(deadlines) < 2 {
		t.Fatalf("want ≥2 dispatches, recorded %d", len(deadlines))
	}
	for i, ms := range deadlines {
		if ms <= 0 || ms > (8*time.Second).Milliseconds() {
			t.Fatalf("dispatch %d deadline %dms outside (0, 8000]", i, ms)
		}
		if i > 0 && ms >= deadlines[i-1] {
			t.Fatalf("re-dispatch %d inherited %dms ≥ prior %dms — deadline not propagated: %v",
				i, ms, deadlines[i-1], deadlines)
		}
	}
}

// TestClusterForwardsTenantToWorkers: the tenant a job bills to at the
// coordinator is forwarded on every shard dispatch, so worker-side fair
// queueing sees the originating tenant rather than one anonymous
// coordinator lane.
func TestClusterForwardsTenantToWorkers(t *testing.T) {
	rec := &headerRecorder{}
	// Unarmed: recorder-only wrappers, nobody dies.
	_, urlA := newRecordedWorker(t, rec)
	_, urlB := newRecordedWorker(t, rec)
	_, base := newCoordinator(t, Config{Workers: []string{urlA, urlB}})
	status, body := postTenant(t, base, "/v1/jobs", "acme", testSpecJSON)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	_, tenants := rec.snapshot()
	if len(tenants) == 0 {
		t.Fatal("no dispatches recorded")
	}
	for i, tn := range tenants {
		if tn != "acme" {
			t.Fatalf("dispatch %d carried tenant %q, want acme (all: %v)", i, tn, tenants)
		}
	}
}

// TestCoordinatorCostBudgetRejects covers coordinator-side admission: a job
// whose predicted cost exceeds -cost-budget bounces with a structured 413
// before any shard is dispatched, cheap work still flows, and the decisions
// land in the per-tenant qos section of /metrics (JSON and Prometheus).
func TestCoordinatorCostBudgetRejects(t *testing.T) {
	_, base := newCoordinator(t, Config{
		Workers: []string{newWorker(t)},
		Front:   serve.Config{CostBudget: time.Minute},
	})

	// exactmajority at n=2e6 predicts ~n·ln n rounds — hours, not a minute.
	status, body := postTenant(t, base, "/v1/jobs", "acme",
		`{"protocol":"exactmajority","n":2000000,"seed":1}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget job: status %d: %s", status, body)
	}
	var doc struct {
		Error string `json:"error"`
		QoS   *struct {
			Tenant          string `json:"tenant"`
			Class           string `json:"class"`
			PredictedCostMs int64  `json:"predicted_cost_ms"`
			Reason          string `json:"reason"`
		} `json:"qos"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.QoS == nil {
		t.Fatalf("413 body not a structured rejection: %s", body)
	}
	if doc.QoS.Tenant != "acme" || doc.QoS.Reason != "over_budget" ||
		doc.QoS.PredictedCostMs < time.Minute.Milliseconds() {
		t.Fatalf("unexpected qos doc: %+v", doc.QoS)
	}

	// Cheap work is unaffected by the budget.
	if status, body := postTenant(t, base, "/v1/jobs", "acme", testSpecJSON); status != http.StatusOK {
		t.Fatalf("cheap job under budget: status %d: %s", status, body)
	}

	// Both decisions are visible per tenant in the JSON document…
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
	if snap.QoS == nil {
		t.Fatal("metrics JSON lacks qos section")
	}
	acme, ok := snap.QoS.Tenants["acme"]
	if !ok {
		t.Fatalf("qos section lacks tenant acme: %+v", snap.QoS.Tenants)
	}
	if acme.Rejected["over_budget"] != 1 {
		t.Fatalf("acme rejected tallies: %+v", acme.Rejected)
	}
	var admitted int64
	for _, v := range acme.Admitted {
		admitted += v
	}
	if admitted != 1 {
		t.Fatalf("acme admitted tallies: %+v", acme.Admitted)
	}

	// …and in the Prometheus exposition.
	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"popkit_qos_rejected_total",
		"popkit_qos_admitted_total",
		`tenant="acme"`,
	} {
		if !strings.Contains(string(prom), series) {
			t.Errorf("prom exposition missing %q", series)
		}
	}

	// A malformed tenant header is a 400, not a silent default.
	status, _ = postTenant(t, base, "/v1/jobs", "no spaces", testSpecJSON)
	if status != http.StatusBadRequest {
		t.Fatalf("bad tenant header: status %d, want 400", status)
	}
}
