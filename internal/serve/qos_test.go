package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"popkit/internal/expt"
	"popkit/internal/qos"
)

// postSpecTenant is postSpec with an X-Popkit-Tenant header.
func postSpecTenant(t *testing.T, url, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(tenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

// TestJobDeadlineDerivation covers both regression directions of replacing
// the flat 60s JobTimeout: large predicted jobs now get more than 60s by
// default, tiny jobs get the floor instead of a long flat grant, and an
// explicit JobTimeout still caps everything — plus the propagated-deadline
// header can only shrink the result.
func TestJobDeadlineDerivation(t *testing.T) {
	s := MustNew(Config{})
	defer s.Close()

	whale := s.CostModel().Predict(
		expt.JobSpec{Protocol: "exactmajority", N: 2_000_000, Replicas: 1, MaxRounds: 1e9}, "counted")
	if whale.Class != qos.ClassWhale {
		t.Fatalf("n=2e6 exact majority classed %v, want whale", whale.Class)
	}
	if d := s.jobDeadline(whale, nil); d <= 60*time.Second {
		t.Fatalf("auto deadline for a whale = %v — no better than the old flat 60s", d)
	}

	tiny := s.CostModel().Predict(expt.JobSpec{Protocol: "leader", N: 128, Replicas: 1}, "framework")
	if d := s.jobDeadline(tiny, nil); d != s.cfg.MinJobTimeout {
		t.Fatalf("auto deadline for a tiny job = %v, want the %v floor (not a flat long grant)", d, s.cfg.MinJobTimeout)
	}

	s2 := MustNew(Config{JobTimeout: 8 * time.Second})
	defer s2.Close()
	if d := s2.jobDeadline(whale, nil); d != 8*time.Second {
		t.Fatalf("explicit JobTimeout did not cap: got %v, want 8s", d)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", nil)
	req.Header.Set(deadlineHeader, "2500")
	if d := s2.jobDeadline(whale, req); d != 2500*time.Millisecond {
		t.Fatalf("propagated deadline did not shrink: got %v, want 2.5s", d)
	}
	req.Header.Set(deadlineHeader, "999999999")
	if d := s2.jobDeadline(whale, req); d != 8*time.Second {
		t.Fatalf("propagated deadline must not extend the cap: got %v, want 8s", d)
	}
}

// TestRetryAfterJitterBurst: the jitter stream is lock-free and still
// produces bounded, non-identical hints across a concurrent 429 burst.
func TestRetryAfterJitterBurst(t *testing.T) {
	p := newPool(qos.QueueConfig{PerTenantDepth: 4}, 1, 0, NewMetrics(), nil, nil)
	defer p.close()
	const burst = 64
	vals := make([]int, burst)
	var wg sync.WaitGroup
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i] = p.retryAfterTenant("")
		}(i)
	}
	wg.Wait()
	distinct := map[int]bool{}
	for _, v := range vals {
		if v < 1 || v > 60 {
			t.Fatalf("hint %d outside [1, 60]", v)
		}
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("a %d-wide burst produced identical hints %v — jitter broken", burst, vals)
	}
}

// TestCostBudgetRejectsWith413: a job predicted beyond the operator budget
// is refused at admission with a structured, non-retryable 413.
func TestCostBudgetRejectsWith413(t *testing.T) {
	_, ts := newTestServer(t, Config{CostBudget: time.Minute})

	resp := postSpecTenant(t, ts.URL, "team-a", `{"protocol":"exactmajority","n":2000000,"seed":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("413 is permanent yet carries Retry-After %q", ra)
	}
	var doc errorDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.QoS == nil || doc.QoS.Tenant != "team-a" || doc.QoS.Reason != "over_budget" ||
		doc.QoS.PredictedCostMs < 60_000 || doc.QoS.Class != "whale" {
		t.Fatalf("structured 413 body wrong: %+v", doc.QoS)
	}

	// Under budget still runs.
	resp2 := postSpecTenant(t, ts.URL, "team-a", `{"protocol":"leader","n":128,"seed":1}`)
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cheap job under a budget: status %d, want 200", resp2.StatusCode)
	}
}

func TestTenantHeaderValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSpecTenant(t, ts.URL, "no spaces allowed", `{"protocol":"leader","n":128,"seed":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tenant header: status %d, want 400", resp.StatusCode)
	}
}

// TestWhaleIsolation is the tentpole guarantee at the serve layer: with a
// whale tenant saturating the server, (1) a second whale waits on the
// running-whale cap rather than occupying another worker, (2) an
// interactive job from a different tenant dispatches and completes while
// that whale is still queued, and (3) the per-tenant popkit_qos_* series
// show up in both the JSON and Prometheus expositions.
func TestWhaleIsolation(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	reg := blockingRegistry(t, started, release)
	s, ts := newTestServer(t, Config{
		Registry:   reg,
		Workers:    2, // WhaleGlobal defaults to workers−1 = 1
		QueueDepth: 8,
	})

	// The "block" protocol is unknown to the cost model → linear rounds →
	// n=1e6 predicts thousands of seconds: a whale. Its replicas block on
	// the release channel, so the whale saturates a worker under our
	// control without burning CPU.
	whaleBody := `{"protocol":"block","n":1000000,"seed":%SEED%}`
	var wg sync.WaitGroup
	postAsync := func(tenant, body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postSpecTenant(t, ts.URL, tenant, body)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	postAsync("heavy", strings.Replace(whaleBody, "%SEED%", "1", 1))
	<-started // whale 1 is running, holding the only global whale slot

	postAsync("heavy", strings.Replace(whaleBody, "%SEED%", "2", 1))
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second whale never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Whale 2 must NOT have started: the global whale cap holds a worker
	// free. An interactive job from another tenant goes right through it.
	resp := postSpecTenant(t, ts.URL, "fast", `{"protocol":"leader","n":100,"seed":3}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"converged":true`)) {
		t.Fatalf("interactive job behind a whale flood: %d %s", resp.StatusCode, body)
	}
	if d := s.pool.depth(); d != 1 {
		t.Fatalf("after the interactive job, queue depth = %d, want the capped whale still queued", d)
	}
	if got := s.pool.whalesRunning(); got != 1 {
		t.Fatalf("whales running = %d, want 1 (global cap)", got)
	}

	close(release)
	wg.Wait()

	// Per-tenant series in the JSON exposition…
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if snap.QoS == nil {
		t.Fatal("metrics JSON lacks the qos section")
	}
	if got := snap.QoS.Tenants["heavy"].Admitted["whale"]; got != 2 {
		t.Fatalf(`qos.tenants.heavy.admitted.whale = %d, want 2`, got)
	}
	if got := snap.QoS.Tenants["fast"].Admitted["interactive"]; got != 1 {
		t.Fatalf(`qos.tenants.fast.admitted.interactive = %d, want 1`, got)
	}
	if snap.QoS.Tenants["heavy"].QueueWait.Count != 2 {
		t.Fatalf("heavy queue-wait count = %d, want 2", snap.QoS.Tenants["heavy"].QueueWait.Count)
	}

	// …and in the Prometheus exposition.
	pr, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	for _, want := range []string{
		`popkit_qos_admitted_total{class="whale",tenant="heavy"}`,
		`popkit_qos_admitted_total{class="interactive",tenant="fast"}`,
		"popkit_qos_whales_running",
		"popkit_qos_queue_wait_seconds",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			// Label order is registry-defined; accept the other order too.
			alt := strings.NewReplacer(
				`{class="whale",tenant="heavy"}`, `{tenant="heavy",class="whale"}`,
				`{class="interactive",tenant="fast"}`, `{tenant="fast",class="interactive"}`,
			).Replace(want)
			if !bytes.Contains(prom, []byte(alt)) {
				t.Errorf("prom exposition lacks %q", want)
			}
		}
	}
}

// TestSweepDoesNotStarveInteractive: a sweeping tenant's cache misses
// enqueue under its own tenant through the fair queue, so an interactive
// job from another tenant dispatches ahead of the sweep's queued batch
// points. If the sweep bypassed DRR, the single worker would pick the next
// blocked sweep point and the interactive job would never complete.
func TestSweepDoesNotStarveInteractive(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	reg := blockingRegistry(t, started, release)
	srv, ts := newTestServer(t, Config{
		Registry:     reg,
		Workers:      1,
		SweepWorkers: 3,
		QueueDepth:   8,
	})

	// block n=2e5 predicts ~17s: batch class. Three points, all misses.
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep",
			strings.NewReader(`{"base":{"protocol":"block","n":200000},"grid":{"seed":[1,2,3]}}`))
		req.Header.Set(tenantHeader, "sweeper")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // sweep point A occupies the only worker
	waitDepth := func(want int) {
		deadline := time.Now().Add(5 * time.Second)
		for srv.pool.depth() != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d (got %d)", want, srv.pool.depth())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitDepth(2) // sweep points B and C queued behind A

	// The interactive job arrives while A blocks and B/C queue behind it.
	type result struct {
		code int
		body []byte
	}
	interactiveDone := make(chan result, 1)
	go func() {
		resp := postSpecTenant(t, ts.URL, "human", `{"protocol":"leader","n":100,"seed":9}`)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		interactiveDone <- result{resp.StatusCode, body}
	}()
	waitDepth(3)

	// Unblock exactly one sweep replica. The worker frees up once; strict
	// class priority must hand it to the interactive job, which then runs
	// to completion with no further releases.
	release <- struct{}{}
	select {
	case res := <-interactiveDone:
		if res.code != http.StatusOK || !bytes.Contains(res.body, []byte(`"converged":true`)) {
			t.Fatalf("interactive job: status %d body %s", res.code, res.body)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("interactive job starved behind queued sweep points")
	}

	close(release)
	select {
	case <-sweepDone:
	case <-time.After(15 * time.Second):
		t.Fatal("sweep did not finish after release")
	}
}

// TestSweepBillsTenantAdmissions: sweep misses count as that tenant's
// admissions in the qos metrics (they cannot bypass accounting either).
func TestSweepBillsTenantAdmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep",
		strings.NewReader(`{"base":{"protocol":"leader","n":128,"replicas":1},"grid":{"seed":[1,2]}}`))
	req.Header.Set(tenantHeader, "griddy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
	}
	resp.Body.Close()
	snap := s.qosM.Snapshot()
	if got := snap.Tenants["griddy"].Admitted["interactive"]; got != 2 {
		t.Fatalf("sweep admissions for tenant = %d, want 2", got)
	}
}
