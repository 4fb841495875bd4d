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

// queuedJob is one submitted Job travelling through the queue to a pool
// worker. The worker journals each record as it completes, streams it into
// the records channel (in replica order), closes the channel, and then
// runs Job.Done; the terminal error, if any, is available from err() once
// records is closed. Job.Tenant and Job.Pred drive QoS scheduling (fair
// queueing, whale caps) and the prediction-error feedback loop; their zero
// values — the default tenant, a zero-cost interactive prediction — are
// what callers without an admission decision get.
type queuedJob struct {
	*Job
	records chan expt.ReplicaRecord

	mu      sync.Mutex
	termErr error
}

func (j *queuedJob) finish(err error) {
	j.mu.Lock()
	j.termErr = err
	j.mu.Unlock()
}

// err returns the terminal error; valid once records is closed.
func (j *queuedJob) err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.termErr
}

// stream is the job's Stream: each record with its wire line as the
// worker delivers it, then the terminal error.
func (j *queuedJob) stream(emit func(expt.ReplicaRecord, []byte)) error {
	for rec := range j.records {
		if line, err := rec.MarshalLine(); err == nil {
			emit(rec, line)
		}
	}
	return j.err()
}

// pool is the per-tenant fair job queue plus the job slots draining it.
// Each of the workers slots runs one replica at a time. A slot that frees
// dispatches a queued job if one is dispatchable and runs that job's
// replicas; only when none is dispatchable does it lend itself to the
// oldest running job, running that job's unclaimed replicas one at a time
// and checking the queue again between them. So total replica parallelism
// is exactly workers, and lending delays a newly dispatchable job by at
// most one replica. A slot lent to a whale job holds one of the queue's
// WhaleGlobal slots while it runs, so whales never fill every slot.
// Scheduling — class priority, weighted deficit-round-robin across tenants,
// whale concurrency caps — lives in qos.Queue; this type owns execution,
// lending and the metrics feedback loops.
type pool struct {
	q          *qos.Queue
	model      *qos.Model
	qm         *qos.Metrics
	workers    int
	maxRetries int
	metrics    *Metrics

	// mu guards running; cond wakes idle slots when a queued job may have
	// become dispatchable, a job opens for lending, or the queue closes.
	mu      sync.Mutex
	cond    *sync.Cond
	running []*lendable

	// hard aborts in-flight fleets when the drain deadline is blown.
	hard     context.Context
	hardStop context.CancelFunc

	closeOnce sync.Once
	wg        sync.WaitGroup

	// jitter is a lock-free splitmix64 stream randomizing Retry-After
	// hints, so a burst of rejected clients doesn't return in lockstep.
	jitter atomic.Uint64
}

// lendable is a running job that idle slots may help, until every one of
// its replicas has been claimed.
type lendable struct {
	h     *fleet.Helper
	whale bool
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
		go p.worker()
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
	err := p.q.Enqueue(&qos.Item{
		Tenant: tenant,
		Class:  j.Pred.Class,
		Cost:   j.Pred.Total,
		Job:    j,
	})
	if err == nil {
		p.wake()
	}
	return err
}

// wake rouses the idle slots to look at the queue and the running jobs
// again.
func (p *pool) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// depth samples the number of queued (not yet started) jobs.
func (p *pool) depth() int { return p.q.Depth() }

// capacity is the per-tenant queue bound (historical queue_capacity gauge).
func (p *pool) capacity() int { return p.q.Capacity() }

// overloaded reports queue pressure at or beyond the shed threshold.
func (p *pool) overloaded() bool { return p.q.Overloaded() }

// tenantQueuedCharge samples one tenant's capped-cost backlog.
func (p *pool) tenantQueuedCharge(tenant string) time.Duration {
	return p.q.TenantQueuedCharge(tenant)
}

// whalesRunning samples currently executing whale-class jobs.
func (p *pool) whalesRunning() int { return p.q.WhalesRunning() }

// retryAfterTenant computes the Retry-After hint for a rejected request:
// roughly the time for the backlog to clear one slot — the whole queue's
// depth, or the tenant's own queued predicted cost, whichever is longer,
// spread across the workers — plus jitter so a burst of rejected clients
// spreads its return instead of stampeding in lockstep. A tenant with
// minutes of backlog is told to come back later than one with none; the
// empty tenant has none. Bounded to [1, 60].
func (p *pool) retryAfterTenant(tenant string) int {
	base := 1 + int(p.q.TenantQueuedCharge(tenant).Seconds())/p.workers
	global := 1 + 2*p.q.Depth()/p.workers
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
	p.closeOnce.Do(func() {
		p.q.Close()
		p.wake()
	})
	p.wg.Wait()
}

// abort cancels the contexts of in-flight jobs so close can finish; queued
// jobs are still drained (each sees its cancelled context immediately).
func (p *pool) abort() { p.hardStop() }

// worker is one job slot: it dispatches queued jobs first, lends itself to
// running jobs when none is dispatchable, and sleeps when there is neither.
func (p *pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		it, drained := p.q.TryNext()
		if it != nil {
			p.mu.Unlock()
			p.dispatch(it)
			p.mu.Lock()
			continue
		}
		if p.lend() {
			continue
		}
		if drained {
			return
		}
		p.cond.Wait()
	}
}

// dispatch runs one queued job on the calling slot.
func (p *pool) dispatch(it *qos.Item) {
	j := it.Job.(*queuedJob)
	p.qm.QueueWait(it.Tenant, time.Since(it.Enqueued))
	p.qm.WhalesRunning.Set(int64(p.q.WhalesRunning()))
	p.runJob(j)
	p.q.Done(it)
	p.qm.WhalesRunning.Set(int64(p.q.WhalesRunning()))
	if it.Class == qos.ClassWhale {
		// A freed whale slot may make a queued whale dispatchable on
		// another idle slot.
		p.wake()
	}
}

// lend runs one unclaimed replica of the oldest running job this slot may
// help and reports whether it ran one. A whale job is helped only while a
// WhaleGlobal slot is free. Jobs with nothing left to claim leave running.
// Caller holds p.mu; it is released while the replica runs.
func (p *pool) lend() bool {
	for i := 0; i < len(p.running); {
		l := p.running[i]
		if l.whale && !p.q.AcquireWhaleSlot() {
			i++
			continue
		}
		p.mu.Unlock()
		ran := l.h.RunOne()
		p.mu.Lock()
		if l.whale {
			p.q.ReleaseWhaleSlot()
			p.cond.Broadcast()
		}
		if ran {
			return true
		}
		p.withdraw(l)
		// running may have changed while p.mu was released.
		i = 0
	}
	return false
}

// offer opens a running job's unclaimed replicas to idle slots.
func (p *pool) offer(h *fleet.Helper, whale bool) *lendable {
	l := &lendable{h: h, whale: whale}
	p.mu.Lock()
	p.running = append(p.running, l)
	p.cond.Broadcast()
	p.mu.Unlock()
	return l
}

// withdraw removes l from running. Caller holds p.mu. slices.Delete
// clears the vacated tail slot, so a finished job's sweep and results are
// not kept reachable from the backing array.
func (p *pool) withdraw(l *lendable) {
	if i := slices.Index(p.running, l); i >= 0 {
		p.running = slices.Delete(p.running, i, i+1)
	}
}

// runJob executes one job's replicas and streams its records. For
// journaled jobs it also appends each completed record to the journal
// before offering it to the (possibly disconnected) stream, and runs Done
// — which closes the journal — only once the fleet is done: the ordering
// that makes a resumed request safe to admit.
func (p *pool) runJob(j *queuedJob) {
	defer func() {
		close(j.records)
		if j.Done != nil {
			j.Done()
		}
	}()
	p.metrics.InFlight.Add(1)
	defer p.metrics.InFlight.Add(-1)

	// Merge the request context with the pool's hard-stop so either aborts
	// the fleet.
	ctx, cancel := context.WithCancel(j.Ctx)
	defer cancel()
	stop := context.AfterFunc(p.hard, cancel)
	defer stop()

	// The job's own slot runs its replicas in order; idle slots join
	// through the helper.
	var fstats fleet.Stats
	var lent *lendable
	opts := catalog.RunOptions{
		Workers:    1,
		MaxRetries: p.maxRetries,
		Start:      j.Start,
		FleetStats: &fstats,
		Join: func(h *fleet.Helper) {
			lent = p.offer(h, j.Pred.Class == qos.ClassWhale)
		},
		Observe: func(r fleet.Result) {
			p.metrics.ReplicaDuration.Observe(r.Elapsed)
			if j.Pred.PerReplica > 0 {
				// Feed the cost model's EWMA and the drift histogram from
				// every completed replica — this is how a grid measured on
				// other hardware converges onto this machine.
				p.model.Observe(j.Pred, r.Elapsed)
				p.qm.ObservePrediction(j.Pred.PerReplica, r.Elapsed)
			}
		},
	}
	runErr := j.Proto.Run(ctx, j.Spec, opts, func(rec expt.ReplicaRecord) {
		if rec.Err == "" {
			p.metrics.ReplicasCompleted.Add(1)
			p.metrics.Interactions.Add(rec.Interactions)
		}
		if j.Journal != nil {
			// Journal first: the record is durable even if the stream's
			// client is gone, which is exactly what a resumed request
			// harvests.
			j.Journal.Append(rec)
		}
		select {
		case j.records <- rec:
		case <-ctx.Done():
			// The consumer is gone; drop the record rather than block the
			// worker forever.
		}
	})

	if lent != nil {
		p.mu.Lock()
		p.withdraw(lent)
		p.mu.Unlock()
	}

	tot := fstats.Totals()
	p.metrics.FleetSteals.Add(tot.Steals)
	p.metrics.FleetRetries.Add(tot.Retries)

	switch {
	case runErr == nil:
		p.metrics.JobsCompleted.Add(1)
	case ctx.Err() != nil:
		j.finish(context.Cause(ctx))
		p.metrics.JobsCancelled.Add(1)
	default:
		j.finish(runErr)
		p.metrics.JobsFailed.Add(1)
	}
}
