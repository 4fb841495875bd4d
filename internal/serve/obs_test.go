package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"popkit/internal/expt"
	"popkit/internal/fault"
	"popkit/internal/obs"
)

// TestEveryRouteHasHistogram pins the fix for the hardcoded endpoint list:
// the metrics' endpoint set derives from the route table, so every
// registered route — pprof included — has a latency histogram.
func TestEveryRouteHasHistogram(t *testing.T) {
	s := MustNew(Config{EnablePprof: true})
	defer s.Close()
	rts := s.routes()
	if len(rts) < 9 {
		t.Fatalf("route table has %d entries with pprof on, want 9", len(rts))
	}
	for _, rt := range rts {
		if s.Metrics().Latency(rt.Name) == nil {
			t.Errorf("route %q (%s) has no latency histogram", rt.Name, rt.Pattern)
		}
	}
}

// TestPprofGating: the profiling endpoints exist only when EnablePprof is
// set.
func TestPprofGating(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served while disabled: %d", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("pprof cmdline: status %d, %d bytes", resp.StatusCode, len(body))
	}
}

// TestMetricsPromFormat runs a job and checks the Prometheus exposition:
// the popkit_* families appear with correct values, the per-endpoint
// latency series exists, and a second render is consistent (counters
// monotone, families in the same order).
func TestMetricsPromFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSpec(t, ts.URL, `{"protocol":"leader","n":64,"seed":1,"replicas":3}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	fetch := func() string {
		t.Helper()
		mr, err := http.Get(ts.URL + "/metrics?format=prom")
		if err != nil {
			t.Fatal(err)
		}
		defer mr.Body.Close()
		if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("prom content type = %q", ct)
		}
		b, err := io.ReadAll(mr.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	text := fetch()

	for _, want := range []string{
		"# TYPE popkit_jobs_accepted_total counter",
		"popkit_jobs_accepted_total 1",
		`popkit_jobs_rejected_total{reason="queue_full"} 0`,
		`popkit_jobs_rejected_total{reason="invalid"} 0`,
		"popkit_jobs_completed_total 1",
		"popkit_replicas_completed_total 3",
		"# TYPE popkit_jobs_inflight gauge",
		"# TYPE popkit_fleet_replica_duration_seconds histogram",
		"popkit_fleet_replica_duration_seconds_count 3",
		`popkit_http_request_duration_seconds_count{endpoint="simulate"} 1`,
		"popkit_queue_capacity 64",
		"# TYPE popkit_uptime_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// Second render: same family order, counters not moving backwards.
	again := fetch()
	order := func(s string) []string {
		var fams []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				fams = append(fams, line)
			}
		}
		return fams
	}
	a, b := order(text), order(again)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("family order unstable:\n%v\nvs\n%v", a, b)
	}
	if !strings.Contains(again, "popkit_jobs_accepted_total 1") {
		t.Errorf("accepted counter regressed between renders")
	}
}

// TestMetricsJSONFieldOrder is the JSON snapshot golden: the documented
// field names appear, in declaration order, on every render.
func TestMetricsJSONFieldOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSpec(t, ts.URL, `{"protocol":"leader","n":64,"seed":1,"replicas":1}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	doc := string(body)
	keys := []string{
		`"jobs_accepted"`, `"jobs_rejected_queue_full"`, `"jobs_rejected_invalid"`,
		`"jobs_completed"`, `"jobs_failed"`, `"jobs_cancelled"`, `"jobs_resumed"`,
		`"replicas_completed"`, `"interactions_total"`, `"interactions_per_sec"`,
		`"fleet_steals_total"`, `"fleet_retries_total"`,
		`"queue_depth"`, `"queue_capacity"`, `"inflight_workers"`, `"uptime_sec"`,
		`"replica_latency"`, `"latency"`,
	}
	prev := -1
	for _, k := range keys {
		i := strings.Index(doc, k)
		if i < 0 {
			t.Fatalf("metrics JSON missing %s:\n%s", k, doc)
		}
		if i < prev {
			t.Fatalf("field %s out of order", k)
		}
		prev = i
	}
}

// TestFleetTelemetryReachesMetrics: after a multi-replica job, the
// replica-duration histogram has one sample per replica and the fleet
// tallies are present in the snapshot; replicas that crash and are retried
// count one retry per extra attempt.
func TestFleetTelemetryReachesMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postSpec(t, ts.URL, `{"protocol":"coalescence","n":2000,"seed":7,"replicas":6}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if got := s.Metrics().ReplicaDuration.Count(); got != 6 {
		t.Errorf("replica duration samples = %d, want 6", got)
	}
	snap := s.Metrics().Snapshot(0, 1, time.Now().Add(-time.Second))
	if snap.ReplicaLatency.Count != 6 {
		t.Errorf("snapshot replica latency count = %d, want 6", snap.ReplicaLatency.Count)
	}
	if snap.FleetSteals < 0 || snap.FleetRetries != 0 {
		t.Errorf("fleet tallies wrong: steals=%d retries=%d", snap.FleetSteals, snap.FleetRetries)
	}

	if err := fault.Enable("fleet/replica=panic(times=2)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	s2, ts2 := newTestServer(t, Config{MaxRetries: 3})
	resp = postSpec(t, ts2.URL, `{"protocol":"coalescence","n":2000,"seed":7,"replicas":6}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got, done := s2.Metrics().FleetRetries.Load(), s2.Metrics().ReplicasCompleted.Load(); got != 2 || done != 6 {
		t.Errorf("two injected crashes: fleet_retries_total = %d, replicas completed = %d; want 2 and 6", got, done)
	}
}

// TestMetricsConcurrentWithJobs hammers both metric renders while fleet
// workers are writing the shared registry — the -race check for the
// registry-backed metrics path.
func TestMetricsConcurrentWithJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp := postSpec(t, ts.URL, `{"protocol":"leader","n":64,"seed":`+string(rune('1'+seed))+`,"replicas":4}`)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		for _, path := range []string{"/metrics", "/metrics?format=prom"} {
			r, err := http.Get(ts.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
	}
}

// runRecords executes a protocol directly through the registry, returning
// the marshalled record lines in replica order.
func runRecords(t *testing.T, ctx context.Context, specJSON string) []string {
	t.Helper()
	reg := NewRegistry()
	var spec expt.JobSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatalf("spec: %v", err)
	}
	p, err := reg.Normalize(&spec, 5_000_000, 1024)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	var lines []string
	err = p.Run(ctx, spec, RunOptions{Workers: 2}, func(rec expt.ReplicaRecord) {
		b, merr := rec.MarshalLine()
		if merr != nil {
			t.Fatalf("marshal: %v", merr)
		}
		lines = append(lines, string(b))
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return lines
}

// TestTraceDoesNotPerturbRecords is the service-level acceptance property:
// a job run with a context-attached trace streams byte-identical records to
// an untraced run, for both the framework and the counted paths — while the
// trace itself captures the run's timeline.
func TestTraceDoesNotPerturbRecords(t *testing.T) {
	cases := []struct {
		spec string
		kind string // event kind the trace must contain
	}{
		{`{"protocol":"leader","n":64,"seed":42,"replicas":3}`, "iteration"},
		{`{"protocol":"coalescence","n":3000,"seed":42,"replicas":2}`, "count"},
	}
	for _, c := range cases {
		plain := runRecords(t, context.Background(), c.spec)
		tr := obs.NewTrace(1 << 16)
		traced := runRecords(t, obs.WithTrace(context.Background(), tr), c.spec)
		if strings.Join(plain, "") != strings.Join(traced, "") {
			t.Errorf("%s: traced records diverged\nplain:  %v\ntraced: %v", c.spec, plain, traced)
		}
		found := false
		for _, e := range tr.Events() {
			if e.Kind == c.kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: trace has no %q events (%d total)", c.spec, c.kind, tr.Len())
		}
	}
}
