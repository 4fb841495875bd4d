package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"popkit/internal/expt"
	"popkit/internal/fault"
)

// bodyGauge tracks how many replica bodies run at once, and the peak.
type bodyGauge struct {
	mu        sync.Mutex
	now, peak int
}

func (g *bodyGauge) enter() {
	g.mu.Lock()
	g.now++
	if g.now > g.peak {
		g.peak = g.now
	}
	g.mu.Unlock()
}

func (g *bodyGauge) exit() {
	g.mu.Lock()
	g.now--
	g.mu.Unlock()
}

func (g *bodyGauge) max() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// tickRegistry registers "tick": each replica body counts itself in g,
// reports its replica index on started (if non-nil, without blocking),
// holds for hold, and returns a converged record.
func tickRegistry(t *testing.T, g *bodyGauge, hold time.Duration, started chan<- int) *Registry {
	t.Helper()
	reg := NewRegistry()
	err := reg.Register(&Protocol{
		Name: "tick",
		Kind: "test",
		Replica: func(ctx context.Context, spec expt.JobSpec, replica int, seed uint64) (expt.ReplicaRecord, error) {
			g.enter()
			defer g.exit()
			if started != nil {
				select {
				case started <- replica:
				default:
				}
			}
			if err := sleepCtx(ctx, hold); err != nil {
				return expt.ReplicaRecord{}, err
			}
			return expt.ReplicaRecord{
				Replica: replica, Protocol: spec.Protocol, N: spec.N,
				Seed: seed, Converged: true,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// postJob POSTs one spec under tenant and reads the whole stream. It runs
// on any goroutine, so it reports failures with t.Errorf.
func postJob(t *testing.T, url, tenant, body string) []byte {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", body, err)
		return nil
	}
	req.Header.Set(tenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("POST %s: %v", body, err)
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"converged":true`)) {
		t.Errorf("POST %s: status %d, read error %v: %s", body, resp.StatusCode, err, b)
	}
	return b
}

// postAll POSTs each body concurrently, tenant by tenant, and waits for
// every stream to finish.
func postAll(t *testing.T, url string, tenants, bodies []string) {
	t.Helper()
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(tenant, body string) {
			defer wg.Done()
			postJob(t, url, tenant, body)
		}(tenants[i], bodies[i])
	}
	wg.Wait()
}

// TestIdleSlotLendsToRunningJob: with the second slot idle, a
// multi-replica job's unclaimed replicas run on it, the stream stays
// byte-identical to a one-worker Protocol.Run, and fleet_steals_total
// counts the lent replicas.
func TestIdleSlotLendsToRunningJob(t *testing.T) {
	// Fixed replica times give the idle slot time to wake and claim.
	if err := fault.Enable("fleet/replica=sleep(d=20ms)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	s, ts := newTestServer(t, Config{Workers: 2})
	const body = `{"protocol":"exactmajority","n":2000,"seed":11,"replicas":8,"gap":1}`
	resp := postSpec(t, ts.URL, body)
	httpBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, httpBytes)
	}

	spec := expt.JobSpec{Protocol: "exactmajority", N: 2000, Seed: 11, Replicas: 8, Gap: 1}
	proto, err := NewRegistry().Normalize(&spec, 5_000_000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := proto.Run(context.Background(), spec, RunOptions{Workers: 1}, func(r expt.ReplicaRecord) {
		line, _ := r.MarshalLine()
		direct.Write(line)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(httpBytes, direct.Bytes()) {
		t.Fatalf("lent run diverges from a one-worker run:\nHTTP:\n%s\ndirect:\n%s", httpBytes, direct.Bytes())
	}
	if steals := s.Metrics().FleetSteals.Load(); steals == 0 {
		t.Fatal("fleet_steals_total = 0: the idle slot ran none of the job's replicas")
	}
}

// TestLentSlotClaimsInReplicaOrder: a lent slot claims the job's lowest
// unclaimed replica, as the dispatching slot does, so records never wait in
// the ordered sink behind a back replica. With two slots, replica 0 holds
// the dispatching slot until 1..7 have run, so the lent slot runs all
// seven, in ID order, and fleet_steals_total counts each.
func TestLentSlotClaimsInReplicaOrder(t *testing.T) {
	var (
		mu    sync.Mutex
		order []int
	)
	rest := make(chan struct{}) // closed once replicas 1..7 have run
	reg := NewRegistry()
	err := reg.Register(&Protocol{
		Name: "ordered",
		Kind: "test",
		Replica: func(ctx context.Context, spec expt.JobSpec, replica int, seed uint64) (expt.ReplicaRecord, error) {
			if replica == 0 {
				select {
				case <-rest:
				case <-ctx.Done():
					return expt.ReplicaRecord{}, ctx.Err()
				}
			} else {
				mu.Lock()
				if order = append(order, replica); len(order) == 7 {
					close(rest)
				}
				mu.Unlock()
			}
			return expt.ReplicaRecord{
				Replica: replica, Protocol: spec.Protocol, N: spec.N,
				Seed: seed, Converged: true,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Registry: reg, Workers: 2})
	postJob(t, ts.URL, "a", `{"protocol":"ordered","n":10,"seed":1,"replicas":8}`)

	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(order, []int{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("the lent slot ran replicas %v, want [1 2 3 4 5 6 7]", order)
	}
	if steals := s.Metrics().FleetSteals.Load(); steals != 7 {
		t.Fatalf("fleet_steals_total = %d, want 7 (every replica the lent slot ran)", steals)
	}
}

// TestLendingNeverExceedsWorkers: lending fills every slot — a lone job
// reaches Workers concurrent replica bodies — but never more, alone or
// with several jobs competing. Finished jobs leave the lending list.
func TestLendingNeverExceedsWorkers(t *testing.T) {
	var g bodyGauge
	s, ts := newTestServer(t, Config{Registry: tickRegistry(t, &g, 5*time.Millisecond, nil), Workers: 3})

	postAll(t, ts.URL, []string{"a"}, []string{`{"protocol":"tick","n":10,"seed":1,"replicas":24}`})
	if got := g.max(); got != 3 {
		t.Fatalf("a lone 24-replica job peaked at %d concurrent bodies, want 3 (every slot)", got)
	}

	var tenants, bodies []string
	for i := 0; i < 4; i++ {
		tenants = append(tenants, "a")
		bodies = append(bodies, fmt.Sprintf(`{"protocol":"tick","n":10,"seed":%d,"replicas":6}`, 10+i))
	}
	postAll(t, ts.URL, tenants, bodies)
	if got := g.max(); got > 3 {
		t.Fatalf("peak %d concurrent replica bodies on 3 slots", got)
	}

	// Not even the list's spare capacity may point at a finished job: that
	// would keep its sweep and results alive until the next job starts.
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for _, l := range s.pool.running[:cap(s.pool.running)] {
		if l != nil {
			t.Fatal("a finished job is still reachable from the pool's lending list")
		}
	}
}

// TestWhaleLendingCap: slots lent to a whale count against WhaleGlobal.
// With two slots (WhaleGlobal 1) a whale never borrows; with three
// (WhaleGlobal 2) a lone whale borrows one slot, and a second whale
// waits for that lent replica instead of taking the third slot.
func TestWhaleLendingCap(t *testing.T) {
	// Thresholds this low class every job a whale.
	whales := func(workers int, g *bodyGauge) string {
		s, ts := newTestServer(t, Config{
			Registry:       tickRegistry(t, g, 5*time.Millisecond, nil),
			Workers:        workers,
			InteractiveMax: time.Nanosecond,
			WhaleMin:       2 * time.Nanosecond,
		})
		if s.cfg.WhaleGlobal != max(workers-1, 1) {
			t.Fatalf("WhaleGlobal = %d with %d workers", s.cfg.WhaleGlobal, workers)
		}
		return ts.URL
	}
	const whale = `{"protocol":"tick","n":1000000,"seed":%d,"replicas":16}`

	var two bodyGauge
	postAll(t, whales(2, &two), []string{"a"}, []string{fmt.Sprintf(whale, 1)})
	if got := two.max(); got != 1 {
		t.Fatalf("2 slots: a whale's replicas ran on %d slots at once, want 1", got)
	}

	var three bodyGauge
	url := whales(3, &three)
	postAll(t, url, []string{"a"}, []string{fmt.Sprintf(whale, 2)})
	if got := three.max(); got != 2 {
		t.Fatalf("3 slots: a lone whale peaked at %d slots, want 2 (its own + one lent)", got)
	}
	postAll(t, url, []string{"a", "b"}, []string{fmt.Sprintf(whale, 3), fmt.Sprintf(whale, 4)})
	if got := three.max(); got > 2 {
		t.Fatalf("3 slots: whales ran on %d slots at once, want at most WhaleGlobal = 2", got)
	}
}

// TestLentSlotYieldsToQueuedJob: a job enqueued while a slot is lent
// starts as soon as that one lent replica ends — not when the lending job
// finishes. The fleet/replica sleep failpoint fixes every replica at d.
func TestLentSlotYieldsToQueuedJob(t *testing.T) {
	const d = 300 * time.Millisecond
	if err := fault.Enable(fmt.Sprintf("fleet/replica=sleep(d=%s)", d)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	var g bodyGauge
	started := make(chan int, 8+1) // one per replica of both jobs
	_, ts := newTestServer(t, Config{Registry: tickRegistry(t, &g, 0, started), Workers: 2})

	aDone := make(chan time.Time, 1)
	go func() {
		postJob(t, ts.URL, "a", `{"protocol":"tick","n":10,"seed":1,"replicas":8}`)
		aDone <- time.Now()
	}()

	// Both slots claim in replica order: 0 and 1 start together, then 2
	// and 3, so the fourth start marks the lent slot on its second replica.
	// Enqueue mid-way through that one.
	for range 4 {
		<-started
	}
	time.Sleep(d / 2)
	bStart := time.Now()
	postJob(t, ts.URL, "a", `{"protocol":"tick","n":10,"seed":2,"replicas":1}`)
	bEnd := time.Now()
	aEnd := <-aDone

	// Ideal: B waits out half of the lent replica, then runs one replica
	// of its own (1.5d). Without yielding it would wait for A's last
	// claim (≥ 3.5d).
	if lat := bEnd.Sub(bStart); lat > 5*d/2 {
		t.Fatalf("queued job took %v behind a lent slot, want ≤ %v (one lent replica plus its own)", lat, 5*d/2)
	}
	if !bEnd.Before(aEnd) {
		t.Fatalf("queued job finished %v after the lending job; it should have started when the lent replica ended",
			bEnd.Sub(aEnd))
	}
}
