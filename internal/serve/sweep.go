package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"popkit/internal/expt"
	"popkit/internal/qos"
	"popkit/internal/store"
)

// handleSweep is POST /v1/sweep: decode a grid spec, expand it server-side
// into normalized JobSpecs, and resolve every point through the result
// store with single-flight dedupe — hits stream straight from disk, misses
// run on the executor (waiting politely when it is full instead of failing
// the sweep), and concurrent identical points coalesce onto one
// computation. The response streams one NDJSON manifest line per grid
// point, in point order, followed by a {"sweep": {...}} summary.
func (f *Front) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if rej := f.exec.Refuse(nil); rej != nil {
		f.reject(w, "", qos.Prediction{}, rej)
		return
	}
	var sw expt.SweepSpec
	tenant, ok := f.decode(w, r, &sw, "sweep spec")
	if !ok {
		return
	}
	specs, err := sw.Expand(f.cfg.MaxSweepPoints)
	if err != nil {
		f.metrics.JobsRejectedInvalid.Add(1)
		WriteError(w, http.StatusBadRequest, "bad sweep spec: %v", err)
		return
	}
	// Normalize per point, so one invalid grid point yields one manifest
	// error line instead of failing the sweep.
	points := make([]store.Point, len(specs))
	for i := range specs {
		sp := specs[i]
		if _, err := f.cfg.Registry.Normalize(&sp, f.cfg.MaxN, f.cfg.MaxReplicas); err != nil {
			points[i] = store.Point{Spec: specs[i], Err: err}
			continue
		}
		points[i] = store.Point{Spec: sp}
	}
	f.metrics.Sweeps.Add(1)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	sweeper := &store.Sweeper{
		Store:   f.store,
		Flight:  f.flight,
		Workers: f.cfg.SweepWorkers,
		Execute: func(ctx context.Context, spec expt.JobSpec) ([][]byte, error) {
			return f.executeJob(ctx, spec, tenant)
		},
	}

	writeLine := openNDJSON(w)
	sum := sweeper.Run(ctx, points, func(res expt.SweepResult) {
		switch {
		case res.Err != "":
			f.metrics.SweepPointsError.Add(1)
		case res.Cache == "hit":
			f.metrics.SweepPointsHit.Add(1)
		case res.Cache == "miss":
			f.metrics.SweepPointsMiss.Add(1)
		case res.Cache == "inflight":
			f.metrics.SweepPointsInfl.Add(1)
		}
		if line, err := json.Marshal(res); err == nil {
			writeLine(append(line, '\n'))
		}
	})
	if line, err := expt.MarshalSummaryLine(sum); err == nil {
		writeLine(line)
	}
}

// executeJob runs one normalized spec on the executor without an HTTP
// stream — the sweep's miss path. Each point is priced and admitted under
// the sweep's own tenant, so a sweeping tenant's misses bill against its
// fair-queueing budget and one over-budget point fails only its own
// manifest line. A full executor means waiting for a slot (the request
// context bounds the wait) rather than failing the sweep: inside one
// sweep, backpressure is pacing. Returns the complete newline-terminated
// record lines in replica order.
func (f *Front) executeJob(ctx context.Context, spec expt.JobSpec, tenant string) ([][]byte, error) {
	// Re-normalizing a normalized spec is the identity; it recovers the
	// protocol handle without widening the Sweeper's Execute signature.
	proto, err := f.cfg.Registry.Normalize(&spec, f.cfg.MaxN, f.cfg.MaxReplicas)
	if err != nil {
		return nil, err
	}
	pred := f.model.Predict(spec, proto.Kind)
	if rej := f.overBudget(pred); rej != nil {
		f.qosM.Rejected(tenant, pred.Class, rej.Reason)
		return nil, errors.New(rej.Msg)
	}
	jctx, cancel := context.WithTimeout(ctx, f.jobDeadline(pred, nil))
	defer cancel()
	j := &Job{Spec: spec, Proto: proto, Ctx: jctx, Tenant: tenant, Pred: pred}
	var stream Stream
	for {
		var rej *Rejection
		if stream, rej = f.exec.Submit(j); rej == nil {
			break
		}
		if rej.Status != http.StatusTooManyRequests {
			return nil, errors.New(rej.Msg)
		}
		if err := sleepCtx(jctx, 25*time.Millisecond); err != nil {
			return nil, fmt.Errorf("waiting for a queue slot: %w", err)
		}
	}
	f.metrics.JobsAccepted.Add(1)
	f.qosM.Admitted(tenant, pred.Class)

	lines := make([][]byte, 0, spec.Replicas)
	var failed string
	err = stream(func(rec expt.ReplicaRecord, line []byte) {
		if rec.Err == "" {
			lines = append(lines, line)
		} else if failed == "" {
			failed = fmt.Sprintf("replica %d failed (%s): %s", rec.Replica, rec.ErrKind, rec.Err)
		}
	})
	if err != nil {
		return nil, err
	}
	if failed != "" {
		return nil, errors.New(failed)
	}
	if len(lines) != spec.Replicas {
		return nil, fmt.Errorf("job produced %d of %d records", len(lines), spec.Replicas)
	}
	return lines, nil
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
