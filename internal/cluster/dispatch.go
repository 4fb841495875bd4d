package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"popkit/internal/client"
	"popkit/internal/expt"
	"popkit/internal/fleet"
	"popkit/internal/qos"
	"popkit/internal/serve"
)

// shard is one contiguous replica window [lo, hi) of a job.
type shard struct{ lo, hi int }

// planShards slices [start, end) into windows of at most size replicas.
// The plan only affects dispatch granularity, never output bytes: the merge
// reorders by replica ID regardless.
func planShards(start, end, size int) []shard {
	if size < 1 {
		size = 1
	}
	var out []shard
	for lo := start; lo < end; lo += size {
		hi := lo + size
		if hi > end {
			hi = end
		}
		out = append(out, shard{lo, hi})
	}
	return out
}

// shardSizeFor picks the shard size for a job with remaining replicas:
// the configured cap, or about two shards per live worker so the tail of a
// job stays balanced when workers finish at different speeds.
func (c *Coordinator) shardSizeFor(remaining, liveWorkers int) int {
	if c.cfg.ShardSize > 0 {
		return c.cfg.ShardSize
	}
	if liveWorkers < 1 {
		liveWorkers = 1
	}
	size := (remaining + 2*liveWorkers - 1) / (2 * liveWorkers)
	if size < 1 {
		size = 1
	}
	return size
}

// merged is the value carried through the ordered merge: the decoded record
// (for journaling) plus its exact wire line (for byte-identical output).
type merged struct {
	rec  expt.ReplicaRecord
	line []byte
}

// Refuse turns a job away before its journal is claimed when no worker is
// live. Sweeps pass: their cached points need no worker.
func (c *Coordinator) Refuse(pred *qos.Prediction) *serve.Rejection {
	if pred == nil {
		return nil
	}
	return c.noLiveWorkers()
}

// noLiveWorkers is the retryable 503 of a dark fleet: no worker is live,
// even after a fresh probe sweep.
func (c *Coordinator) noLiveWorkers() *serve.Rejection {
	if _, live := c.workers.counts(); live > 0 || c.ProbeNow() > 0 {
		return nil
	}
	return &serve.Rejection{
		Status: http.StatusServiceUnavailable,
		Msg:    "no live workers registered; retry later",
		Count:  c.metrics.JobsRejectedNoWorkers,
	}
}

// Submit starts dispatching j's replicas, or refuses as Refuse does when no
// worker is live — a sweep point asks only here, so it fails at once
// rather than after the dispatch retries. The merged lines travel to the
// Stream's caller verbatim — never decoded and re-encoded — and Done runs
// once every shard has settled.
func (c *Coordinator) Submit(j *serve.Job) (serve.Stream, *serve.Rejection) {
	if rej := c.noLiveWorkers(); rej != nil {
		return nil, rej
	}
	lines := make(chan merged)
	var err error
	// The goroutine ends with the job, which j.Ctx bounds; the Stream waits
	// for it when read to the end.
	go func() {
		defer close(lines)
		dropped := false
		err = c.execute(j.Ctx, j.Tenant, j.Spec, j.Start, j.Journal, func(m merged) {
			if dropped {
				return
			}
			select {
			case lines <- m:
			case <-j.Ctx.Done():
				// The reader may be gone. The merge still journals, and the
				// stream stays a gap-free prefix.
				dropped = true
			}
		})
		switch {
		case err == nil:
			c.metrics.JobsCompleted.Add(1)
		case j.Ctx.Err() != nil:
			c.metrics.JobsCancelled.Add(1)
		default:
			c.metrics.JobsFailed.Add(1)
		}
		if j.Done != nil {
			j.Done()
		}
	}()
	return func(emit func(expt.ReplicaRecord, []byte)) error {
		for m := range lines {
			emit(m.rec, m.line)
		}
		return err
	}, nil
}

// RetryAfter is one probe interval plus a second — about when a worker
// that is coming back will have been seen.
func (c *Coordinator) RetryAfter(string) int {
	return max(int(c.cfg.ProbeInterval/time.Second), 1) + 1
}

// execute dispatches replicas [start, spec.Replicas) across the live
// workers and delivers every merged record — in replica order, exactly
// once — to write. With a journal, each line is made durable before it is
// written. Returns the first shard failure (cancellations included) after
// all shards settle.
func (c *Coordinator) execute(ctx context.Context, tenant string, spec expt.JobSpec, start int, journal *expt.Journal, write func(merged)) error {
	inner := fleet.SinkFunc(func(r fleet.Result) {
		m := r.Value.(merged)
		if journal != nil {
			// Journal first: the record survives a coordinator crash even
			// if the requesting client is gone.
			journal.AppendLine(m.rec, m.line)
		}
		c.metrics.RecordsMerged.Inc()
		write(m)
	})
	ordered := fleet.NewOrderedSinkAt(inner, start)

	_, live := c.workers.counts()
	shards := planShards(start, spec.Replicas, c.shardSizeFor(spec.Replicas-start, live))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	maxInflight := c.cfg.MaxInflightShards
	if maxInflight == 0 {
		total, _ := c.workers.counts()
		maxInflight = 2 * total
		if maxInflight < 4 {
			maxInflight = 4
		}
	}
	sem := make(chan struct{}, maxInflight)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, sh := range shards {
		wg.Add(1)
		go func(sh shard) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				return
			}
			if err := c.runShard(ctx, tenant, spec, sh, ordered); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("shard [%d,%d): %w", sh.lo, sh.hi, err)
					cancel() // one lost shard fails the job; stop the rest
				}
				mu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ordered.SinkErr()
}

// runShard streams one shard's replicas into sink, surviving worker loss:
// each dispatch posts the spec with the window [cursor, hi) to the
// least-loaded live worker, and a dispatch that dies mid-stream marks its
// worker down and re-dispatches the remaining window elsewhere — the
// cluster-level twin of the client's own reconnect logic, built on the same
// progress-resets-the-budget rule. Records below cursor are never
// re-emitted, so the sink sees each replica exactly once.
//
// Every dispatch — re-dispatches included — carries the originating tenant
// and the job deadline's REMAINING budget (the client stamps
// X-Popkit-Deadline-Ms from ctx per attempt), so a shard re-routed after a
// worker died inherits what is left of the original deadline and bills to
// the same tenant lane on its new worker.
func (c *Coordinator) runShard(ctx context.Context, tenant string, spec expt.JobSpec, sh shard, sink fleet.ResultSink) error {
	cursor := sh.lo
	noProgress := 0
	avoid := ""
	var lastErr error
	for cursor < sh.hi {
		if err := ctx.Err(); err != nil {
			return err
		}
		wk := c.workers.pick(avoid)
		if wk == nil {
			// Nobody live: force a probe sweep (a restarted worker revives
			// here) and retry under the dispatch budget.
			if c.workers.probeAll(ctx) == 0 {
				noProgress++
				if noProgress > c.cfg.DispatchRetries {
					if lastErr == nil {
						lastErr = errors.New("no live workers")
					}
					return fmt.Errorf("no live workers after %d attempts: %w", noProgress, lastErr)
				}
				if err := dispatchBackoff(ctx, noProgress); err != nil {
					return err
				}
			}
			continue
		}

		shardSpec := spec
		shardSpec.JobID = "" // shards re-dispatch instead of journaling
		shardSpec.Start = cursor
		shardSpec.Replicas = sh.hi
		cl := client.New(client.Options{
			BaseURL:    wk.url,
			HTTPClient: c.cfg.HTTPClient,
			MaxRetries: c.cfg.ClientRetries,
			Tenant:     tenant,
			Logf:       c.cfg.Logf,
		})
		before := cursor
		t0 := time.Now()
		c.metrics.ShardsDispatched.Inc()
		err := cl.Stream(ctx, shardSpec, func(rec expt.ReplicaRecord, line []byte) {
			cursor = rec.Replica + 1
			sink.Emit(fleet.Result{ID: rec.Replica, Seed: rec.Seed, Value: merged{rec, line}})
		})
		c.workers.release(wk, time.Since(t0))
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		c.workers.markDown(wk, err)
		c.metrics.ShardsRedispatched.Inc()
		c.logf("cluster: worker %s failed shard [%d,%d) at replica %d, re-dispatching: %v",
			wk.url, sh.lo, sh.hi, cursor, err)
		avoid = wk.url
		if cursor > before {
			noProgress = 0
		} else {
			noProgress++
			if noProgress > c.cfg.DispatchRetries {
				return fmt.Errorf("stalled at replica %d after %d dispatch attempts: %w", cursor, noProgress, err)
			}
		}
	}
	return nil
}

// dispatchBackoff spaces the no-live-worker retries — 100ms, 200ms, …,
// capped at 2s — or returns ctx's error once it ends. Worker failures
// themselves re-dispatch immediately — there is a healthy worker waiting —
// so this only paces a fully dark cluster.
func dispatchBackoff(ctx context.Context, fails int) error {
	t := time.NewTimer(min(time.Duration(fails)*100*time.Millisecond, 2*time.Second))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
