package qos

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"popkit/internal/obs"
)

func item(tenant string, c Class, cost time.Duration, tag string) *Item {
	return &Item{Tenant: tenant, Class: c, Cost: cost, Job: tag}
}

// next returns the queue's next dispatchable item, failing the test when
// none is.
func next(t *testing.T, q *Queue) *Item {
	t.Helper()
	it, _ := q.TryNext()
	if it == nil {
		t.Fatal("no dispatchable item")
	}
	return it
}

func TestFIFOWithinTenantAndClass(t *testing.T) {
	q := NewQueue(QueueConfig{})
	for _, tag := range []string{"a", "b", "c"} {
		if err := q.Enqueue(item("t", ClassBatch, time.Second, tag)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"a", "b", "c"} {
		it := next(t, q)
		if it.Job.(string) != want {
			t.Fatalf("got %v, want %v", it.Job, want)
		}
		q.Done(it)
	}
}

func TestClassPriorityWithinTenant(t *testing.T) {
	q := NewQueue(QueueConfig{})
	q.Enqueue(item("t", ClassWhale, time.Hour, "whale"))
	q.Enqueue(item("t", ClassBatch, 5*time.Second, "batch"))
	q.Enqueue(item("t", ClassInteractive, time.Millisecond, "inter"))
	for _, want := range []string{"inter", "batch", "whale"} {
		it := next(t, q)
		if it.Job.(string) != want {
			t.Fatalf("got %v, want %v", it.Job, want)
		}
		q.Done(it)
	}
}

func TestInteractiveNeverBehindAnotherTenantsWhales(t *testing.T) {
	q := NewQueue(QueueConfig{WhaleGlobal: 4, WhalePerTenant: 4})
	for i := 0; i < 8; i++ {
		if err := q.Enqueue(item("whaler", ClassWhale, time.Hour, "whale")); err != nil {
			t.Fatal(err)
		}
	}
	q.Enqueue(item("alice", ClassInteractive, time.Millisecond, "inter"))
	// Strict class priority: the interactive item dispatches first even
	// though the whale tenant queued first and has eight items waiting.
	it := next(t, q)
	if it.Job.(string) != "inter" {
		t.Fatalf("first dispatch = %v, want the interactive job", it.Job)
	}
	q.Done(it)
}

func TestDRRWeightedShare(t *testing.T) {
	q := NewQueue(QueueConfig{
		PerTenantDepth: 100,
		GlobalDepth:    300,
		Weights:        map[string]int{"heavy": 4, "light": 1},
	})
	for i := 0; i < 80; i++ {
		q.Enqueue(item("heavy", ClassBatch, time.Second, "heavy"))
		q.Enqueue(item("light", ClassBatch, time.Second, "light"))
	}
	counts := map[string]int{}
	for i := 0; i < 50; i++ {
		it := next(t, q)
		counts[it.Tenant]++
		q.Done(it)
	}
	if counts["heavy"] < 3*counts["light"] {
		t.Fatalf("weight-4 tenant got %d dispatches vs %d — want ≥ 3×", counts["heavy"], counts["light"])
	}
	if counts["light"] == 0 {
		t.Fatal("weight-1 tenant fully starved")
	}
}

func TestEqualWeightShareDespiteCostGap(t *testing.T) {
	// One tenant's items are 100× more expensive (capped by ChargeCap):
	// the cheap tenant must get proportionally more dispatches, and the
	// expensive tenant must still progress.
	q := NewQueue(QueueConfig{PerTenantDepth: 100, GlobalDepth: 300, ChargeCap: 10 * time.Second})
	for i := 0; i < 60; i++ {
		q.Enqueue(item("cheap", ClassBatch, 100*time.Millisecond, "cheap"))
		q.Enqueue(item("dear", ClassBatch, 10*time.Second, "dear"))
	}
	var order []string
	for i := 0; i < 120; i++ {
		it := next(t, q)
		order = append(order, it.Tenant)
		q.Done(it)
	}
	early := 0
	for _, tn := range order[:50] {
		if tn == "cheap" {
			early++
		}
	}
	if early < 45 {
		t.Fatalf("cost-aware DRR should front-load the cheap tenant: %d/50 early dispatches", early)
	}
	dear := 0
	for _, tn := range order {
		if tn == "dear" {
			dear++
		}
	}
	if dear != 60 {
		t.Fatalf("expensive tenant dispatched %d of 60 items", dear)
	}
}

func TestWhaleCaps(t *testing.T) {
	q := NewQueue(QueueConfig{WhaleGlobal: 1, WhalePerTenant: 1})
	q.Enqueue(item("a", ClassWhale, time.Hour, "w1"))
	q.Enqueue(item("b", ClassWhale, time.Hour, "w2"))
	first := next(t, q)

	// The global cap holds the second whale back even though a worker asks.
	if it, drained := q.TryNext(); it != nil || drained {
		t.Fatalf("second whale dispatched past the global cap (%v, drained %v)", it, drained)
	}
	// A batch job is unaffected by whale caps.
	q.Enqueue(item("c", ClassBatch, time.Second, "batch"))
	it := next(t, q)
	if it.Job.(string) != "batch" {
		t.Fatalf("expected the batch job to bypass capped whales, got %v", it.Job)
	}
	q.Done(it)
	// Finishing the first whale frees the slot; a slot lent to a whale
	// takes it just as a running whale does.
	q.Done(first)
	if !q.AcquireWhaleSlot() {
		t.Fatal("no whale slot free with no whale running")
	}
	if it, _ := q.TryNext(); it != nil {
		t.Fatalf("whale %v dispatched while a lent slot held the global cap", it.Job)
	}
	if q.AcquireWhaleSlot() {
		t.Fatal("a second lent whale slot past WhaleGlobal = 1")
	}
	q.ReleaseWhaleSlot()
	it = next(t, q)
	if it.Job.(string) != "w2" {
		t.Fatalf("after Done, got %v, want w2", it.Job)
	}
	if q.WhalesRunning() != 1 {
		t.Fatalf("whales running = %d, want 1", q.WhalesRunning())
	}
	q.Done(it)
	if q.WhalesRunning() != 0 {
		t.Fatalf("whales running after Done = %d, want 0", q.WhalesRunning())
	}
}

// TestDispatchedItemNotRetained: once dispatched, an item is no longer
// reachable from the queue, so the job it carries can be collected when it
// ends.
func TestDispatchedItemNotRetained(t *testing.T) {
	q := NewQueue(QueueConfig{})
	var freed atomic.Bool
	job := &[64]byte{} // large enough to escape the tiny allocator
	runtime.SetFinalizer(job, func(*[64]byte) { freed.Store(true) })
	q.Enqueue(&Item{Tenant: "t", Class: ClassBatch, Cost: time.Second, Job: job})
	q.Done(next(t, q))
	job = nil
	for i := 0; i < 100 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("a dispatched item's job is still reachable from its lane")
	}
	runtime.KeepAlive(q)
}

func TestPerTenantWhaleCap(t *testing.T) {
	q := NewQueue(QueueConfig{WhaleGlobal: 8, WhalePerTenant: 1})
	q.Enqueue(item("a", ClassWhale, time.Hour, "a1"))
	q.Enqueue(item("a", ClassWhale, time.Hour, "a2"))
	q.Enqueue(item("b", ClassWhale, time.Hour, "b1"))
	first := next(t, q)
	second := next(t, q)
	if first.Tenant == second.Tenant {
		t.Fatalf("two running whales from tenant %q despite per-tenant cap 1", first.Tenant)
	}
	q.Done(first)
	q.Done(second)
}

func TestEnqueueLimits(t *testing.T) {
	q := NewQueue(QueueConfig{PerTenantDepth: 2, GlobalDepth: 3, MaxTenants: 2})
	if err := q.Enqueue(item("a", ClassBatch, time.Second, "1")); err != nil {
		t.Fatal(err)
	}
	q.Enqueue(item("a", ClassBatch, time.Second, "2"))
	if err := q.Enqueue(item("a", ClassBatch, time.Second, "3")); !errors.Is(err, ErrTenantFull) {
		t.Fatalf("tenant overflow: %v, want ErrTenantFull", err)
	}
	q.Enqueue(item("b", ClassBatch, time.Second, "4"))
	if err := q.Enqueue(item("b", ClassBatch, time.Second, "5")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("global overflow: %v, want ErrQueueFull", err)
	}
	q.Close()
	if err := q.Enqueue(item("a", ClassBatch, time.Second, "7")); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("closed queue: %v, want ErrQueueClosed", err)
	}

	// Tenant cardinality: with ample depth and both tenants busy, a third
	// tenant cannot evict anyone and is refused.
	q2 := NewQueue(QueueConfig{PerTenantDepth: 4, GlobalDepth: 16, MaxTenants: 2})
	q2.Enqueue(item("a", ClassBatch, time.Second, "a1"))
	q2.Enqueue(item("b", ClassBatch, time.Second, "b1"))
	if err := q2.Enqueue(item("c", ClassBatch, time.Second, "c1")); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("tenant cardinality: %v, want ErrTenantLimit", err)
	}
}

func TestIdleTenantEviction(t *testing.T) {
	q := NewQueue(QueueConfig{MaxTenants: 1})
	q.Enqueue(item("a", ClassBatch, time.Second, "a1"))
	it := next(t, q)
	q.Done(it)
	// Tenant a is idle now; tenant b takes its slot.
	if err := q.Enqueue(item("b", ClassBatch, time.Second, "b1")); err != nil {
		t.Fatalf("idle tenant not evicted: %v", err)
	}
	it = next(t, q)
	if it.Tenant != "b" {
		t.Fatalf("got tenant %q, want b", it.Tenant)
	}
	q.Done(it)
}

func TestCloseDrainsThenStops(t *testing.T) {
	q := NewQueue(QueueConfig{})
	if it, drained := q.TryNext(); it != nil || drained {
		t.Fatalf("empty open queue: item %v, drained %v; want nil, false", it, drained)
	}
	q.Enqueue(item("t", ClassBatch, time.Second, "1"))
	q.Enqueue(item("t", ClassBatch, time.Second, "2"))
	q.Close()
	for i := 0; i < 2; i++ {
		it, drained := q.TryNext()
		if it == nil || drained {
			t.Fatalf("queued item %d lost on close (drained %v)", i, drained)
		}
		q.Done(it)
	}
	if it, drained := q.TryNext(); it != nil || !drained {
		t.Fatalf("empty closed queue: item %v, drained %v; want nil, true", it, drained)
	}
	q.Close() // idempotent
	if _, drained := q.TryNext(); !drained {
		t.Fatal("a second Close undid the drain")
	}
}

func TestDepthAndChargeSampling(t *testing.T) {
	q := NewQueue(QueueConfig{ChargeCap: 10 * time.Second, PerTenantDepth: 4, ShedDepth: 2})
	q.Enqueue(item("t", ClassBatch, 3*time.Second, "1"))
	q.Enqueue(item("t", ClassBatch, time.Hour, "2")) // charge capped at 10s
	if d := q.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	if c := q.TenantQueuedCharge("t"); c != 13*time.Second {
		t.Fatalf("queued charge = %v, want 13s", c)
	}
	if !q.Overloaded() {
		t.Fatal("2 queued with ShedDepth 2 must report overload")
	}
	it := next(t, q)
	q.Done(it)
	it = next(t, q)
	q.Done(it)
	if q.Overloaded() {
		t.Fatal("drained queue still overloaded")
	}
	if c := q.TenantQueuedCharge("t"); c != 0 {
		t.Fatalf("drained queued charge = %v", c)
	}
	if q.Capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", q.Capacity())
	}
}

// TestConcurrentProducersConsumers is the race-detector workout: many
// producers and consumers over all classes and several tenants, with whale
// caps in play, must neither deadlock nor lose items. They share the queue
// the way popserved's job pool does: every call under one mutex, with a
// condition variable on it waking consumers after each change.
func TestConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue(QueueConfig{
		PerTenantDepth: 1000,
		GlobalDepth:    4000,
		WhaleGlobal:    2,
		WhalePerTenant: 1,
	})
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	const perTenant = 50
	tenants := []string{"a", "b", "c"}
	var produced sync.WaitGroup
	for _, tn := range tenants {
		produced.Add(1)
		go func(tn string) {
			defer produced.Done()
			for i := 0; i < perTenant; i++ {
				c := Classes()[i%3]
				cost := time.Millisecond
				if c == ClassWhale {
					cost = time.Hour
				}
				for {
					mu.Lock()
					err := q.Enqueue(item(tn, c, cost, tn))
					cond.Broadcast()
					mu.Unlock()
					if err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(tn)
	}
	got := 0
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				it, drained := q.TryNext()
				if drained {
					return
				}
				if it == nil {
					cond.Wait()
					continue
				}
				got++
				mu.Unlock()
				runtime.Gosched() // the item runs with the lock released
				mu.Lock()
				q.Done(it)
				cond.Broadcast()
			}
		}()
	}
	produced.Wait()
	mu.Lock()
	q.Close()
	cond.Broadcast()
	mu.Unlock()
	workers.Wait()
	if want := perTenant * len(tenants); got != want {
		t.Fatalf("dispatched %d items, want %d", got, want)
	}
	if q.WhalesRunning() != 0 {
		t.Fatalf("whales running after drain: %d", q.WhalesRunning())
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics(nil) // nil registry: inert series, no panics
	m.Admitted("t", ClassInteractive)
	m.Rejected("t", ClassWhale, "over_budget")
	m.Shed("t", ClassWhale, "overload")
	m.QueueWait("t", time.Millisecond)
	m.ObservePrediction(time.Second, 3*time.Second)
	m.ObservePrediction(3*time.Second, time.Second)
	_ = m.Snapshot()

	reg := obs.NewRegistry()
	m = NewMetrics(reg)
	m.Admitted("alice", ClassInteractive)
	m.Admitted("alice", ClassInteractive)
	m.Rejected("bob", ClassWhale, "over_budget")
	m.Shed("bob", ClassWhale, "draining")
	m.QueueWait("alice", 5*time.Millisecond)
	snap := m.Snapshot()
	if snap.Tenants["alice"].Admitted["interactive"] != 2 {
		t.Fatalf("alice interactive admitted = %d, want 2", snap.Tenants["alice"].Admitted["interactive"])
	}
	if snap.Tenants["bob"].Rejected["over_budget"] != 1 {
		t.Fatalf("bob over_budget = %d, want 1", snap.Tenants["bob"].Rejected["over_budget"])
	}
	if snap.Tenants["bob"].Shed["draining"] != 1 {
		t.Fatalf("bob shed draining = %d, want 1", snap.Tenants["bob"].Shed["draining"])
	}
	if snap.Tenants["alice"].QueueWait.Count != 1 {
		t.Fatalf("alice queue-wait count = %d, want 1", snap.Tenants["alice"].QueueWait.Count)
	}
}
