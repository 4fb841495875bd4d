package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"popkit/internal/fault"
)

const cacheSpecJSON = `{"protocol":"leader","n":256,"seed":9,"replicas":3}`

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestRepeatPostServedFromStore(t *testing.T) {
	defer fault.Reset()
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir()})

	first := postSpec(t, ts.URL, cacheSpecJSON)
	if got := first.Header.Get("X-Popkit-Cache"); got != "miss" {
		t.Fatalf("first POST X-Popkit-Cache = %q, want miss", got)
	}
	firstBody := readAll(t, first)

	// The store-bypass proof: with the enqueue failpoint hard-failing, the
	// repeat POST can only succeed if it never reaches the queue at all.
	if err := fault.Enable("serve/enqueue=error"); err != nil {
		t.Fatal(err)
	}
	second := postSpec(t, ts.URL, cacheSpecJSON)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("cached POST status %d: %s", second.StatusCode, readAll(t, second))
	}
	if got := second.Header.Get("X-Popkit-Cache"); got != "hit" {
		t.Fatalf("second POST X-Popkit-Cache = %q, want hit", got)
	}
	secondBody := readAll(t, second)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("cached stream not byte-identical:\nfirst  %q\nsecond %q", firstBody, secondBody)
	}

	if got := s.Metrics().JobsAccepted.Load(); got != 1 {
		t.Errorf("jobs accepted = %d, want 1 (the hit must not enqueue)", got)
	}
	snap := s.Store().Metrics().Snapshot()
	if snap.Hits != 1 || snap.Commits != 1 {
		t.Errorf("store snapshot = %+v, want hits=1 commits=1", snap)
	}
}

func TestMetaRecordReportsCached(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir()})

	type metaDoc struct {
		Meta struct {
			SpecHash string `json:"spec_hash"`
			Cached   bool   `json:"cached"`
			Replicas int    `json:"replicas"`
		} `json:"meta"`
	}
	post := func() (metaDoc, []string) {
		resp, err := http.Post(ts.URL+"/v1/simulate?meta=1", "application/json", strings.NewReader(cacheSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		var doc metaDoc
		if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil {
			t.Fatalf("bad meta line %q: %v", lines[0], err)
		}
		return doc, lines[1:]
	}

	doc, records := post()
	if doc.Meta.Cached || len(doc.Meta.SpecHash) != 64 || doc.Meta.Replicas != 3 {
		t.Fatalf("first meta = %+v, want cached=false with a sha256 hash and replicas=3", doc.Meta)
	}
	if len(records) != 3 {
		t.Fatalf("first POST streamed %d records, want 3", len(records))
	}
	doc2, records2 := post()
	if !doc2.Meta.Cached || doc2.Meta.SpecHash != doc.Meta.SpecHash {
		t.Fatalf("second meta = %+v, want cached=true with the same hash %.12s", doc2.Meta, doc.Meta.SpecHash)
	}
	if len(records2) != 3 {
		t.Fatalf("cached POST streamed %d records, want 3", len(records2))
	}

	// Without ?meta=1 no metadata record is emitted, preserving byte-identity
	// with CLI output and with store-less servers.
	resp := postSpec(t, ts.URL, cacheSpecJSON)
	body := readAll(t, resp)
	if bytes.Contains(body, []byte(`"meta"`)) {
		t.Fatal("metadata record emitted without ?meta=1")
	}
}

func TestConcurrentIdenticalPostsSingleFlight(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Registry: blockingRegistry(t, started, release),
		Workers:  2,
		StoreDir: t.TempDir(),
	})

	const concurrent = 4
	body := `{"protocol":"block","n":10,"seed":1,"replicas":2}`
	bodies := make([][]byte, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postSpec(t, ts.URL, body)
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			bodies[i] = raw
		}(i)
	}
	<-started // the leader is computing
	// Release the leader only once every follower has coalesced onto it: a
	// follower that arrived after the commit would be a store hit instead.
	deadline := time.Now().Add(5 * time.Second)
	for s.Store().Metrics().Coalesced.Load() < concurrent-1 {
		if time.Now().After(deadline) {
			t.Fatal("followers never coalesced onto the in-flight leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 1; i < concurrent; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if len(bodies[0]) == 0 {
		t.Fatal("empty responses")
	}
	if got := s.Metrics().JobsAccepted.Load(); got != 1 {
		t.Errorf("jobs accepted = %d, want exactly 1 for %d concurrent identical POSTs", got, concurrent)
	}
	snap := s.Store().Metrics().Snapshot()
	if snap.Coalesced != concurrent-1 {
		t.Errorf("coalesced = %d, want %d", snap.Coalesced, concurrent-1)
	}
}

func TestJobIDRequestsBypassTheStore(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), JournalDir: t.TempDir()})
	resp := postSpec(t, ts.URL, `{"protocol":"leader","n":256,"seed":9,"replicas":2,"job_id":"j1"}`)
	if got := resp.Header.Get("X-Popkit-Cache"); got != "" {
		t.Fatalf("journaled job got X-Popkit-Cache %q; job_id specs are served by their journal, not the store", got)
	}
	readAll(t, resp)
	if s.Store().Len() != 0 {
		t.Fatal("journaled job was committed to the store")
	}
}

func TestMetricsExposeStoreCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	readAll(t, postSpec(t, ts.URL, cacheSpecJSON))
	readAll(t, postSpec(t, ts.URL, cacheSpecJSON))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(readAll(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Store == nil {
		t.Fatal("/metrics JSON has no store object on a store-enabled server")
	}
	if snap.Store.Hits != 1 || snap.Store.Misses != 1 || snap.Store.Commits != 1 {
		t.Fatalf("store snapshot = %+v, want hits=1 misses=1 commits=1", *snap.Store)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom := string(readAll(t, resp))
	for _, series := range []string{"popkit_store_hits_total 1", "popkit_store_misses_total 1", "popkit_store_entries 1"} {
		if !strings.Contains(prom, series) {
			t.Errorf("prom exposition missing %q", series)
		}
	}
}

func TestStorelessServerStillWorks(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postSpec(t, ts.URL, cacheSpecJSON)
	if got := resp.Header.Get("X-Popkit-Cache"); got != "" {
		t.Fatalf("store-less server set X-Popkit-Cache %q", got)
	}
	first := readAll(t, resp)
	second := readAll(t, postSpec(t, ts.URL, cacheSpecJSON))
	if !bytes.Equal(first, second) {
		t.Fatal("determinism broke without a store")
	}
	if s.Store() != nil {
		t.Fatal("Store() non-nil without StoreDir")
	}
	if got := s.Metrics().JobsAccepted.Load(); got != 2 {
		t.Errorf("jobs accepted = %d, want 2 (no cache, both computed)", got)
	}
}
