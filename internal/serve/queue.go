package serve

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"popkit/internal/catalog"
	"popkit/internal/expt"
	"popkit/internal/fleet"
	"popkit/internal/qos"
)

// queuedJob is one submitted Job travelling through the queue to the job
// slots, which emit its records through the Job in replica order and end
// it. Job.Tenant and Job.Pred drive QoS scheduling (fair queueing, whale
// caps) and the prediction-error feedback loop; their zero values — the
// default tenant, a zero-cost interactive prediction — are what callers
// without an admission decision get.
type queuedJob struct {
	*Job

	// Set when a slot dispatches the job. Slots claim replicas in ID order
	// from the cursor next — the dispatching slot and lent slots alike —
	// and the slot that reports the last one in flight ends the job. The
	// pool's mu guards next and inFlight.
	item     *qos.Item
	release  func() // cancels Ctx and detaches it from the pool's hard stop
	replicas []fleet.Job
	out      *catalog.Records
	next     int
	inFlight int
}

// pool is the per-tenant fair job queue plus the job slots draining it, and
// the only scheduler of a served job's replicas. Each of the workers slots
// runs one replica at a time. A slot that frees claims the next replica of
// the job it dispatched while any is left; otherwise it dispatches a queued
// job if one is dispatchable; only when none is does it lend itself to the
// oldest running job, claiming that job's lowest unclaimed replica and
// checking the queue again after it. Every slot claims in replica order,
// so a record reaches its job's stream as soon as it and every lower one
// have finished. Total replica parallelism is exactly workers, and lending
// delays a newly dispatchable job by at most one replica. A slot lent to a
// whale job holds one of the queue's WhaleGlobal slots while it runs, so
// whales never fill every slot. Scheduling policy — class priority,
// weighted deficit-round-robin across tenants, whale concurrency caps —
// lives in qos.Queue; this type makes every decision under its one lock,
// runs the replicas and owns the metrics feedback loops.
type pool struct {
	model      *qos.Model
	qm         *qos.Metrics
	workers    int
	maxRetries int
	metrics    *Metrics

	// mu guards q, running and the claim state of every running job; cond
	// wakes idle slots when a queued job may have become dispatchable, a
	// job opens for lending, or the queue closes.
	mu      sync.Mutex
	cond    *sync.Cond
	q       *qos.Queue
	running []*queuedJob // dispatched and not yet ended, oldest first

	// hard aborts in-flight jobs when the drain deadline is blown.
	hard     context.Context
	hardStop context.CancelFunc

	wg sync.WaitGroup

	// jitter is a lock-free splitmix64 stream randomizing Retry-After
	// hints, so a burst of rejected clients doesn't return in lockstep.
	jitter atomic.Uint64
}

func newPool(qcfg qos.QueueConfig, workers, maxRetries int, metrics *Metrics, model *qos.Model, qm *qos.Metrics) *pool {
	if workers < 1 {
		workers = 1
	}
	if model == nil {
		model = qos.MustNewModel(qos.ModelOptions{})
	}
	if qm == nil {
		qm = qos.NewMetrics(nil)
	}
	hard, stop := context.WithCancel(context.Background())
	p := &pool{
		q:          qos.NewQueue(qcfg),
		model:      model,
		qm:         qm,
		workers:    workers,
		maxRetries: maxRetries,
		metrics:    metrics,
		hard:       hard,
		hardStop:   stop,
	}
	p.cond = sync.NewCond(&p.mu)
	p.jitter.Store(1)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// tryEnqueue offers the job to its tenant's queue without blocking. The
// returned qos error identifies which limit rejected it (per-tenant depth,
// global depth, tenant cardinality, closed queue); callers map it to a
// structured 429.
func (p *pool) tryEnqueue(j *queuedJob) error {
	tenant := j.Tenant
	if tenant == "" {
		tenant = qos.DefaultTenant
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.q.Enqueue(&qos.Item{
		Tenant: tenant,
		Class:  j.Pred.Class,
		Cost:   j.Pred.Total,
		Job:    j,
	})
	if err == nil {
		p.cond.Broadcast()
	}
	return err
}

// sample reads one of the queue's gauges under p.mu.
func sample[T any](p *pool, read func(*qos.Queue) T) T {
	p.mu.Lock()
	defer p.mu.Unlock()
	return read(p.q)
}

// depth samples the number of queued (not yet started) jobs.
func (p *pool) depth() int { return sample(p, (*qos.Queue).Depth) }

// capacity is the per-tenant queue bound (historical queue_capacity gauge).
func (p *pool) capacity() int { return p.q.Capacity() }

// overloaded reports queue pressure at or beyond the shed threshold.
func (p *pool) overloaded() bool { return sample(p, (*qos.Queue).Overloaded) }

// whalesRunning samples currently executing whale-class jobs.
func (p *pool) whalesRunning() int { return sample(p, (*qos.Queue).WhalesRunning) }

// retryAfterTenant computes the Retry-After hint for a rejected request:
// roughly the time for the backlog to clear one slot — the whole queue's
// depth, or the tenant's own queued predicted cost, whichever is longer,
// spread across the workers — plus jitter so a burst of rejected clients
// spreads its return instead of stampeding in lockstep. A tenant with
// minutes of backlog is told to come back later than one with none; the
// empty tenant has none. Bounded to [1, 60].
func (p *pool) retryAfterTenant(tenant string) int {
	p.mu.Lock()
	charge, depth := p.q.TenantQueuedCharge(tenant), p.q.Depth()
	p.mu.Unlock()
	base := 1 + int(charge.Seconds())/p.workers
	global := 1 + 2*depth/p.workers
	if global > base {
		base = global
	}
	return p.retryHint(base)
}

// retryHint adds jitter to a base hint and clamps to [1, 60]. The jitter
// stream is a single atomic — no lock, and concurrent rejections still draw
// distinct values because Add hands each caller a unique counter.
func (p *pool) retryHint(sec int) int {
	if sec < 1 {
		sec = 1
	}
	z := p.jitter.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	sec += int(z % uint64(sec/2+2))
	if sec > 60 {
		sec = 60
	}
	return sec
}

// close stops intake and blocks until every queued and in-flight job has
// drained. Callers that need a deadline race close against a timer and then
// call abort.
func (p *pool) close() {
	p.mu.Lock()
	p.q.Close()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// abort cancels the contexts of in-flight jobs so close can finish; queued
// jobs are still drained (each sees its cancelled context immediately).
func (p *pool) abort() { p.hardStop() }

// worker is job slot number slot. It makes every decision under p.mu —
// claim the next replica of the job it dispatched, else dispatch a queued
// job, else lend itself to the oldest running job, else exit once the
// queue is drained or sleep — and releases the lock only to run a replica
// or end a job. It decides afresh after each release, so no wakeup sent
// meanwhile is lost.
func (p *pool) worker(slot int) {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	var own *queuedJob // the job this slot dispatched
	for {
		if own != nil && own.next < len(own.replicas) {
			p.run(own, slot, false)
			continue
		}
		own = nil
		it, drained := p.q.TryNext()
		if it != nil {
			own = p.dispatch(it)
			continue
		}
		if j := p.lendTo(); j != nil {
			p.run(j, slot, true)
			continue
		}
		if drained {
			return
		}
		p.cond.Wait()
	}
}

// dispatch starts the queued job it carries: it opens the job's replicas to
// claims and adds it to running. Caller holds p.mu.
func (p *pool) dispatch(it *qos.Item) *queuedJob {
	j := it.Job.(*queuedJob)
	p.qm.QueueWait(it.Tenant, time.Since(it.Enqueued))
	p.qm.WhalesRunning.Set(int64(p.q.WhalesRunning()))
	p.metrics.InFlight.Add(1)
	// Narrow the job's context to one the pool's hard stop also ends, so
	// either aborts the job and End counts a hard stop as cancelled.
	ctx, cancel := context.WithCancel(j.Ctx)
	stop := context.AfterFunc(p.hard, cancel)
	j.item, j.Ctx = it, ctx
	j.release = func() { stop(); cancel() }
	j.replicas = j.Proto.Jobs(j.Spec, j.Start)
	j.out = catalog.NewRecords(j.Spec, j.Start, func(rec expt.ReplicaRecord) { p.deliver(j, rec) })
	p.running = append(p.running, j)
	p.cond.Broadcast()
	p.settle(j) // a job with nothing to run ends here
	return j
}

// lendTo returns the oldest running job with an unclaimed replica that an
// idle slot may run, first taking a WhaleGlobal slot for a whale job (run
// gives it back). Caller holds p.mu.
func (p *pool) lendTo() *queuedJob {
	for _, j := range p.running {
		if j.next < len(j.replicas) && (j.item.Class != qos.ClassWhale || p.q.AcquireWhaleSlot()) {
			return j
		}
	}
	return nil
}

// run claims j's lowest unclaimed replica, runs it on this slot (lent to
// j, or the slot that dispatched it) and reports it. Caller holds p.mu,
// which is released while the replica runs.
func (p *pool) run(j *queuedJob, slot int, lent bool) {
	i := j.next
	j.next++
	j.inFlight++
	p.mu.Unlock()
	r := fleet.RunOne(j.Ctx, j.replicas[i], slot, p.maxRetries)
	p.metrics.ReplicaDuration.Observe(r.Elapsed)
	if j.Pred.PerReplica > 0 {
		// Feed the cost model's EWMA and the drift histogram from every
		// completed replica — this is how a grid measured on other
		// hardware converges onto this machine.
		p.model.Observe(j.Pred, r.Elapsed)
		p.qm.ObservePrediction(j.Pred.PerReplica, r.Elapsed)
	}
	p.metrics.FleetRetries.Add(uint64(r.Attempts - 1))
	if lent {
		p.metrics.FleetSteals.Add(1)
	}
	j.out.Emit(r)
	p.mu.Lock()
	j.inFlight--
	if lent && j.item.Class == qos.ClassWhale {
		p.q.ReleaseWhaleSlot()
		p.cond.Broadcast()
	}
	p.settle(j)
}

// deliver is j's record sink, called in replica order: it tallies the
// record and emits it with its wire line.
func (p *pool) deliver(j *queuedJob, rec expt.ReplicaRecord) {
	if rec.Err == "" {
		p.metrics.ReplicasCompleted.Add(1)
		p.metrics.Interactions.Add(rec.Interactions)
	}
	if line, err := rec.MarshalLine(); err == nil {
		j.Emit(rec, line)
	}
}

// settle ends j once every replica has been claimed and has reported: j
// leaves running and frees its queue slot under p.mu, then ends with the
// lock released. Caller holds p.mu.
func (p *pool) settle(j *queuedJob) {
	if j.next < len(j.replicas) || j.inFlight > 0 {
		return
	}
	// slices.Delete clears the vacated tail slot, so an ended job is not
	// kept reachable from the backing array.
	i := slices.Index(p.running, j)
	p.running = slices.Delete(p.running, i, i+1)
	p.q.Done(j.item)
	p.qm.WhalesRunning.Set(int64(p.q.WhalesRunning()))
	if j.item.Class == qos.ClassWhale {
		// A freed whale slot may make a queued whale dispatchable on
		// another idle slot.
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.end(j)
	p.mu.Lock()
}

// end ends j with its first failure in replica order — the cause of its
// context when that has ended — before releasing the context, so End sees
// a hard stop as a cancellation.
func (p *pool) end(j *queuedJob) {
	err := j.out.Err()
	if err != nil && j.Ctx.Err() != nil {
		err = context.Cause(j.Ctx)
	}
	p.metrics.InFlight.Add(-1)
	j.End(err)
	j.release()
}
