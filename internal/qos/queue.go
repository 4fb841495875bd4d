package qos

import (
	"errors"
	"time"
)

// DefaultTenant is the queue a request without an X-Popkit-Tenant header
// lands in.
const DefaultTenant = "default"

// CleanTenant validates a tenant name from the wire: empty maps to
// DefaultTenant; otherwise up to 64 characters of [A-Za-z0-9._-]. The
// second return is false for anything else — reject the request rather
// than letting arbitrary header bytes become metric labels and map keys.
func CleanTenant(s string) (string, bool) {
	if s == "" {
		return DefaultTenant, true
	}
	if len(s) > 64 {
		return "", false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return "", false
		}
	}
	return s, true
}

// Enqueue rejections. Each maps to one structured-429 reason on the wire.
var (
	ErrQueueClosed = errors.New("queue closed")
	ErrQueueFull   = errors.New("job queue full (global)")
	ErrTenantFull  = errors.New("job queue full (tenant)")
	ErrTenantLimit = errors.New("too many distinct tenants")
)

// Item is one queued unit of work. Job carries the caller's payload
// opaquely; Tenant/Class/Cost drive scheduling.
type Item struct {
	Tenant string
	Class  Class
	// Cost is the predicted total cost (Prediction.Total); the DRR charge
	// is capped at ChargeCap so a whale cannot wedge its tenant's deficit.
	Cost     time.Duration
	Enqueued time.Time
	Job      any
}

// QueueConfig sizes a Queue. Zero values mean defaults.
type QueueConfig struct {
	// PerTenantDepth bounds each tenant's queued jobs — the direct analogue
	// of the old single-queue depth, so a single-tenant server keeps its
	// historical 429 behaviour. Default 64.
	PerTenantDepth int
	// GlobalDepth bounds total queued jobs across tenants.
	// Default 4 × PerTenantDepth.
	GlobalDepth int
	// MaxTenants bounds distinct live tenant queues; beyond it, new tenants
	// are rejected unless an idle tenant can be evicted. Default 64.
	MaxTenants int
	// Weights gives named tenants a DRR weight; unlisted tenants get
	// DefaultWeight. Higher weight → proportionally more dispatch credit.
	Weights map[string]int
	// DefaultWeight is the weight of unlisted tenants. Default 1.
	DefaultWeight int
	// Quantum is the deficit credit added per DRR round per unit weight.
	// Default 1s.
	Quantum time.Duration
	// ChargeCap caps one item's deficit charge, so predicted-for-days
	// whales cost a bounded amount of credit and the round-robin always
	// makes progress. Default 30s.
	ChargeCap time.Duration
	// WhalePerTenant / WhaleGlobal cap concurrently *running* whale-class
	// jobs per tenant and across the queue; WhaleGlobal also counts slots
	// lent to running whales (AcquireWhaleSlot). Defaults 1 and 1 —
	// servers should raise WhaleGlobal to workers−1 so whales can never
	// occupy every worker.
	WhalePerTenant int
	WhaleGlobal    int
	// ShedDepth is the total queued size at or above which Overloaded
	// reports pressure (the load-shed trigger). Default 3 × PerTenantDepth.
	ShedDepth int
}

func (c *QueueConfig) fillDefaults() {
	if c.PerTenantDepth < 1 {
		c.PerTenantDepth = 64
	}
	if c.GlobalDepth < 1 {
		c.GlobalDepth = 4 * c.PerTenantDepth
	}
	if c.GlobalDepth < c.PerTenantDepth {
		c.GlobalDepth = c.PerTenantDepth
	}
	if c.MaxTenants < 1 {
		c.MaxTenants = 64
	}
	if c.DefaultWeight < 1 {
		c.DefaultWeight = 1
	}
	if c.Quantum <= 0 {
		c.Quantum = time.Second
	}
	if c.ChargeCap <= 0 {
		c.ChargeCap = 30 * time.Second
	}
	if c.WhalePerTenant < 1 {
		c.WhalePerTenant = 1
	}
	if c.WhaleGlobal < 1 {
		c.WhaleGlobal = 1
	}
	if c.ShedDepth < 1 {
		c.ShedDepth = 3 * c.PerTenantDepth
	}
}

// tenantQ is one tenant's queue state: a FIFO lane per size class plus the
// DRR deficit.
type tenantQ struct {
	name         string
	weight       int
	deficit      time.Duration
	lanes        [3][]*Item
	depth        int
	queuedCharge time.Duration // sum of capped charges, for Retry-After hints
}

// Queue is the per-tenant weighted fair queue: deficit round-robin across
// tenants, strict class priority (interactive > batch > whale) so small
// jobs never sit behind whales, and concurrency caps on running whales.
// It is plain data, not safe for concurrent use: its one user, popserved's
// job pool, calls every method under the pool's lock, so that each
// scheduling decision and the wakeups that follow it are made under one
// lock.
type Queue struct {
	cfg QueueConfig

	tenants map[string]*tenantQ
	order   []*tenantQ
	rr      int // next tenant index the DRR scan starts from
	size    int
	closed  bool

	whales      map[string]int // running whale jobs per tenant
	whalesTotal int
	// whalesLent counts whale slots held through AcquireWhaleSlot; they
	// count against WhaleGlobal alongside whalesTotal.
	whalesLent int
}

// NewQueue builds a queue; see QueueConfig for defaults.
func NewQueue(cfg QueueConfig) *Queue {
	cfg.fillDefaults()
	return &Queue{
		cfg:     cfg,
		tenants: make(map[string]*tenantQ),
		whales:  make(map[string]int),
	}
}

func (q *Queue) weightOf(tenant string) int {
	if w, ok := q.cfg.Weights[tenant]; ok && w >= 1 {
		return w
	}
	return q.cfg.DefaultWeight
}

func (q *Queue) charge(cost time.Duration) time.Duration {
	if cost <= 0 {
		return time.Millisecond
	}
	if cost > q.cfg.ChargeCap {
		return q.cfg.ChargeCap
	}
	return cost
}

// evictIdleTenant drops one tenant with nothing queued and no running
// whales, making room for a new one. Reports whether it found a victim.
func (q *Queue) evictIdleTenant() bool {
	for i, t := range q.order {
		if t.depth == 0 && q.whales[t.name] == 0 {
			q.order = append(q.order[:i], q.order[i+1:]...)
			delete(q.tenants, t.name)
			if len(q.order) > 0 {
				q.rr %= len(q.order)
			} else {
				q.rr = 0
			}
			return true
		}
	}
	return false
}

// Enqueue offers an item without blocking. The error identifies which
// limit rejected it (per-tenant depth, global depth, tenant cardinality,
// or a closed queue).
func (q *Queue) Enqueue(it *Item) error {
	if q.closed {
		return ErrQueueClosed
	}
	if q.size >= q.cfg.GlobalDepth {
		return ErrQueueFull
	}
	t := q.tenants[it.Tenant]
	if t == nil {
		if len(q.tenants) >= q.cfg.MaxTenants && !q.evictIdleTenant() {
			return ErrTenantLimit
		}
		t = &tenantQ{name: it.Tenant, weight: q.weightOf(it.Tenant)}
		q.tenants[it.Tenant] = t
		q.order = append(q.order, t)
	}
	if t.depth >= q.cfg.PerTenantDepth {
		return ErrTenantFull
	}
	if it.Enqueued.IsZero() {
		it.Enqueued = time.Now()
	}
	t.lanes[it.Class] = append(t.lanes[it.Class], it)
	t.depth++
	t.queuedCharge += q.charge(it.Cost)
	q.size++
	return nil
}

// TryNext returns the next dispatchable item, or nil when none is
// dispatchable right now; drained reports a closed, empty queue, which
// will never dispatch again. Callers must call Done with the item once it
// has run (it releases the whale slot).
func (q *Queue) TryNext() (it *Item, drained bool) {
	it = q.pick()
	return it, it == nil && q.closed && q.size == 0
}

// AcquireWhaleSlot takes one of the WhaleGlobal slots for whale work that
// is not a dispatched item — a job slot lent to a running whale job — and
// reports whether one was free. While held it counts against WhaleGlobal
// exactly as a running whale does, so whale dispatch and whale lending
// together never exceed the cap. Release it with ReleaseWhaleSlot.
func (q *Queue) AcquireWhaleSlot() bool {
	if q.whalesTotal+q.whalesLent >= q.cfg.WhaleGlobal {
		return false
	}
	q.whalesLent++
	return true
}

// ReleaseWhaleSlot returns a slot AcquireWhaleSlot took.
func (q *Queue) ReleaseWhaleSlot() {
	if q.whalesLent > 0 {
		q.whalesLent--
	}
}

// Done releases the resources the dispatch of it acquired (the whale
// concurrency slot). Must be called exactly once per item TryNext
// returned.
func (q *Queue) Done(it *Item) {
	if it.Class != ClassWhale {
		return
	}
	if q.whales[it.Tenant] > 0 {
		q.whales[it.Tenant]--
		if q.whales[it.Tenant] == 0 {
			delete(q.whales, it.Tenant)
		}
	}
	if q.whalesTotal > 0 {
		q.whalesTotal--
	}
}

// Close stops intake. Queued items still dispatch; TryNext reports the
// queue drained once they have. Safe to call more than once.
func (q *Queue) Close() { q.closed = true }

// pick implements the dispatch policy:
//
//  1. strict class priority: all interactive heads across tenants are
//     considered before any batch head, batch before whale — the "small
//     jobs never sit behind whales" guarantee (sustained interactive
//     saturation deliberately delays whales);
//  2. within a class, deficit round-robin across tenants: each round every
//     competing tenant accrues Quantum×weight credit, and the first tenant
//     (in rotating order) whose deficit covers its head's capped charge
//     dispatches — weighted max-min fairness over predicted cost;
//  3. whale heads are only eligible while their tenant and the queue as a
//     whole are under the running-whale caps (the global cap also counts
//     slots held through AcquireWhaleSlot).
func (q *Queue) pick() *Item {
	if q.size == 0 || len(q.order) == 0 {
		return nil
	}
	n := len(q.order)
	for _, class := range Classes() {
		var eligible []int
		for i := 0; i < n; i++ {
			idx := (q.rr + i) % n
			t := q.order[idx]
			if len(t.lanes[class]) == 0 {
				continue
			}
			if class == ClassWhale &&
				(q.whalesTotal+q.whalesLent >= q.cfg.WhaleGlobal || q.whales[t.name] >= q.cfg.WhalePerTenant) {
				continue
			}
			eligible = append(eligible, idx)
		}
		if len(eligible) == 0 {
			continue
		}
		// Bounded by construction: charges are ≤ ChargeCap and every round
		// adds ≥ Quantum to each competitor, but keep a hard stop anyway.
		maxRounds := int(q.cfg.ChargeCap/q.cfg.Quantum) + 2
		for round := 0; round <= maxRounds; round++ {
			for _, idx := range eligible {
				t := q.order[idx]
				it := t.lanes[class][0]
				ch := q.charge(it.Cost)
				if t.deficit < ch && round < maxRounds {
					continue
				}
				// Dispatch (the final round dispatches unconditionally —
				// unreachable unless the bound above is ever wrong).
				if t.deficit >= ch {
					t.deficit -= ch
				} else {
					t.deficit = 0
				}
				q.dequeue(t, class)
				if class == ClassWhale {
					q.whales[t.name]++
					q.whalesTotal++
				}
				q.rr = (idx + 1) % n
				return it
			}
			for _, idx := range eligible {
				t := q.order[idx]
				t.deficit += q.cfg.Quantum * time.Duration(t.weight)
				if lim := q.cfg.ChargeCap + 2*q.cfg.Quantum*time.Duration(t.weight); t.deficit > lim {
					t.deficit = lim
				}
			}
		}
	}
	return nil
}

// dequeue pops t's head item in class.
func (q *Queue) dequeue(t *tenantQ, class Class) {
	it := t.lanes[class][0]
	// The lane's backing array outlives the reslice; clear the slot so a
	// dispatched item's job is not kept reachable after it ends.
	t.lanes[class][0] = nil
	t.lanes[class] = t.lanes[class][1:]
	t.depth--
	t.queuedCharge -= q.charge(it.Cost)
	if t.queuedCharge < 0 {
		t.queuedCharge = 0
	}
	q.size--
	if t.depth == 0 {
		// Classic DRR: an emptied queue forfeits its accumulated credit,
		// so an idle tenant cannot bank a burst.
		t.deficit = 0
	}
}

// Depth samples total queued items.
func (q *Queue) Depth() int { return q.size }

// Capacity is the per-tenant depth bound (the historical queue_capacity
// gauge semantics: what one tenant can have queued).
func (q *Queue) Capacity() int { return q.cfg.PerTenantDepth }

// TenantQueuedCharge samples the tenant's queued capped-cost backlog — the
// cost-aware half of a Retry-After hint.
func (q *Queue) TenantQueuedCharge(tenant string) time.Duration {
	if t := q.tenants[tenant]; t != nil {
		return t.queuedCharge
	}
	return 0
}

// WhalesRunning samples the number of running whale-class jobs.
func (q *Queue) WhalesRunning() int { return q.whalesTotal }

// Overloaded reports queue pressure: total backlog at or beyond ShedDepth.
// The server sheds whale admissions while it holds.
func (q *Queue) Overloaded() bool { return q.size >= q.cfg.ShedDepth }
