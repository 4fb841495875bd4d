package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"popkit/internal/expt"
	"popkit/internal/serve"
)

// postResp is post with the full response exposed, for header assertions.
func postResp(t *testing.T, base, path, spec string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCoordinatorRepeatPostServedFromStore: the second identical POST must
// come out of the coordinator store — byte-identical, no shards dispatched,
// and still served after the whole fleet goes dark.
func TestCoordinatorRepeatPostServedFromStore(t *testing.T) {
	want := singleNodeBytes(t, testSpecJSON)

	// A worker we can kill mid-test, unlike newWorker's test-scoped one.
	ws := serve.MustNew(serve.Config{QueueDepth: 16, Workers: 2})
	wts := httptest.NewServer(ws.Handler())
	defer ws.Close()
	defer wts.Close()

	c, base := newCoordinator(t, Config{Workers: []string{wts.URL}, Front: serve.Config{StoreDir: t.TempDir()}})

	first := postResp(t, base, "/v1/jobs", testSpecJSON)
	if got := first.Header.Get("X-Popkit-Cache"); got != "miss" {
		t.Fatalf("first POST X-Popkit-Cache = %q, want miss", got)
	}
	firstBody := readBody(t, first)
	if !bytes.Equal(firstBody, want) {
		t.Fatalf("cluster output differs from single node:\n%s\nvs\n%s", firstBody, want)
	}
	dispatched := c.Metrics().ShardsDispatched.Load()
	accepted := c.Metrics().JobsAccepted.Load()

	// Kill the fleet. A plain job would now 503; the cached one must serve.
	wts.Close()
	c.ProbeNow()
	if _, live := c.workers.counts(); live != 0 {
		t.Fatalf("worker still live after close: %d", live)
	}

	second := postResp(t, base, "/v1/jobs", testSpecJSON)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("cached POST against a dark fleet: status %d", second.StatusCode)
	}
	if got := second.Header.Get("X-Popkit-Cache"); got != "hit" {
		t.Fatalf("second POST X-Popkit-Cache = %q, want hit", got)
	}
	if secondBody := readBody(t, second); !bytes.Equal(firstBody, secondBody) {
		t.Fatal("cached stream not byte-identical to the first run")
	}
	if got := c.Metrics().ShardsDispatched.Load(); got != dispatched {
		t.Fatalf("cache hit dispatched %d shard(s)", got-dispatched)
	}
	if got := c.Metrics().JobsAccepted.Load(); got != accepted {
		t.Fatalf("cache hit accepted a job (%d -> %d)", accepted, got)
	}

	// An uncached spec against the dark fleet still 503s — the store did not
	// mask the liveness check, it preceded it.
	uncached := postResp(t, base, "/v1/jobs", `{"protocol":"leader","n":100,"replicas":2}`)
	readBody(t, uncached)
	if uncached.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached POST against a dark fleet: status %d, want 503", uncached.StatusCode)
	}
}

// TestMetaRecordMatchesPopserved: ?meta=1 on a store-backed coordinator
// opens the stream with the same metadata record a store-backed popserved
// sends — on a miss and on a hit — and the records after it match too.
func TestMetaRecordMatchesPopserved(t *testing.T) {
	_, base := newCoordinator(t, Config{Workers: []string{newWorker(t)}, Front: serve.Config{StoreDir: t.TempDir()}})
	solo := newPopserved(t, serve.Config{StoreDir: t.TempDir()})
	for _, cache := range []string{"miss", "hit"} {
		got := postResp(t, base, "/v1/jobs?meta=1", testSpecJSON)
		want := postResp(t, solo, "/v1/simulate?meta=1", testSpecJSON)
		if got.Header.Get("X-Popkit-Cache") != cache || want.Header.Get("X-Popkit-Cache") != cache {
			t.Fatalf("X-Popkit-Cache coordinator %q, popserved %q, want %s",
				got.Header.Get("X-Popkit-Cache"), want.Header.Get("X-Popkit-Cache"), cache)
		}
		gb, wb := readBody(t, got), readBody(t, want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: coordinator stream differs from popserved's:\n%s\nvs\n%s", cache, gb, wb)
		}
		var meta struct {
			Meta struct {
				SpecHash string `json:"spec_hash"`
				Cached   bool   `json:"cached"`
			} `json:"meta"`
		}
		if err := json.Unmarshal(gb[:bytes.IndexByte(gb, '\n')], &meta); err != nil ||
			len(meta.Meta.SpecHash) != 64 || meta.Meta.Cached != (cache == "hit") {
			t.Fatalf("%s: bad meta record (%v) in\n%s", cache, err, gb)
		}
	}
}

// postSweepC POSTs a sweep to the coordinator and decodes manifest + summary.
func postSweepC(t *testing.T, base, body string) ([]expt.SweepResult, expt.SweepSummary) {
	t.Helper()
	resp := postResp(t, base, "/v1/sweep", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var (
		results []expt.SweepResult
		sum     expt.SweepSummary
		sawSum  bool
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s, ok := expt.ParseSummaryLine(sc.Bytes()); ok {
			sum, sawSum = s, true
			continue
		}
		var res expt.SweepResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad manifest line %q: %v", sc.Text(), err)
		}
		results = append(results, res)
	}
	if !sawSum {
		t.Fatal("sweep stream ended without a summary line")
	}
	return results, sum
}

// TestCoordinatorSweepDedupesOverlap mirrors the worker-side sweep test at
// cluster scale: an overlapping second grid fans out only its miss set, and
// the sweep/store counters surface in both metrics formats.
func TestCoordinatorSweepDedupesOverlap(t *testing.T) {
	c, base := newCoordinator(t, Config{
		Workers: []string{newWorker(t), newWorker(t)},
		Front:   serve.Config{StoreDir: t.TempDir()},
	})

	first := `{"base":{"protocol":"leader","n":256,"replicas":2},"grid":{"seed":[1,2]}}`
	results, sum := postSweepC(t, base, first)
	if len(results) != 2 || sum != (expt.SweepSummary{Points: 2, Misses: 2}) {
		t.Fatalf("first sweep: %d lines, summary %+v, want 2 misses", len(results), sum)
	}
	for i, res := range results {
		if res.Point != i || res.Cache != "miss" || res.Err != "" || res.Records != 2 {
			t.Fatalf("point %d = %+v, want an in-order 2-record miss", i, res)
		}
	}

	accepted := c.Metrics().JobsAccepted.Load()
	second := `{"base":{"protocol":"leader","n":256,"replicas":2},"grid":{"seed":[1,2,3]}}`
	results, sum = postSweepC(t, base, second)
	if sum != (expt.SweepSummary{Points: 3, Hits: 2, Misses: 1}) {
		t.Fatalf("second summary = %+v, want 2 hits 1 miss", sum)
	}
	wantCache := []string{"hit", "hit", "miss"}
	for i, res := range results {
		if res.Cache != wantCache[i] {
			t.Fatalf("point %d cache = %q, want %q", i, res.Cache, wantCache[i])
		}
	}
	if got := c.Metrics().JobsAccepted.Load() - accepted; got != 1 {
		t.Fatalf("overlap sweep accepted %d jobs, want 1 (only the miss set runs)", got)
	}

	// The counters ride the same metrics surfaces as every other series.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Sweeps != 2 || snap.SweepPointsHit != 2 || snap.SweepPointsMiss != 3 {
		t.Fatalf("snapshot sweeps=%d hit=%d miss=%d, want 2/2/3",
			snap.Sweeps, snap.SweepPointsHit, snap.SweepPointsMiss)
	}
	if snap.Store == nil || snap.Store.Hits != 2 || snap.Store.Commits != 3 {
		t.Fatalf("store snapshot = %+v, want hits=2 commits=3", snap.Store)
	}
	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom := string(readBody(t, resp))
	for _, series := range []string{
		"popkit_cluster_sweeps_total 2",
		`popkit_cluster_sweep_points_total{cache="hit"} 2`,
		"popkit_store_commits_total 3",
	} {
		if !strings.Contains(prom, series) {
			t.Errorf("prom exposition missing %q", series)
		}
	}
}

// TestCoordinatorSweepNeedsWorkersOnlyForMisses: with every point cached, a
// sweep completes against a dark fleet; an uncached point fails in-band.
func TestCoordinatorSweepNeedsWorkersOnlyForMisses(t *testing.T) {
	ws := serve.MustNew(serve.Config{QueueDepth: 16, Workers: 2})
	wts := httptest.NewServer(ws.Handler())
	defer ws.Close()
	defer wts.Close()
	c, base := newCoordinator(t, Config{Workers: []string{wts.URL}, Front: serve.Config{StoreDir: t.TempDir()}})

	warm := `{"base":{"protocol":"leader","n":256,"replicas":2},"grid":{"seed":[1,2]}}`
	if _, sum := postSweepC(t, base, warm); sum.Misses != 2 {
		t.Fatalf("warm-up summary %+v, want 2 misses", sum)
	}
	wts.Close()
	c.ProbeNow()

	cold := `{"base":{"protocol":"leader","n":256,"replicas":2},"grid":{"seed":[1,2,3]}}`
	results, sum := postSweepC(t, base, cold)
	if sum.Hits != 2 || sum.Errors != 1 {
		t.Fatalf("dark-fleet sweep summary %+v, want 2 hits 1 error", sum)
	}
	if results[2].Err == "" {
		t.Fatalf("uncached point against a dark fleet = %+v, want an in-band error", results[2])
	}
}
