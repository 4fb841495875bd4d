package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"popkit/internal/catalog"
	"popkit/internal/expt"
	"popkit/internal/fleet"
	"popkit/internal/qos"
)

// The -qos mode calibrates the admission-control cost model: it runs one
// representative workload per size class (interactive / batch / whale)
// through the same registry code popserved serves, compares the model's
// admission-time prediction against the measured per-replica wall clock,
// and records the error — plus the EWMA corrections the observations
// produced — under the "qos" key of BENCH_results.json. The numbers answer
// the operational question behind every 413/429 the server sends: how far
// off is the prediction that justified it?

// qosWorkloadResult is one workload's predicted-vs-actual entry.
type qosWorkloadResult struct {
	// Class is the size class the model assigned at admission time.
	Class    string `json:"class"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	Replicas int    `json:"replicas"`
	// Tier is the runner the model priced the job on.
	Tier string `json:"tier"`
	// Correction is the EWMA multiplier the prediction carried (1 = raw
	// grid; earlier workloads' observations move it, as in production).
	Correction             float64 `json:"correction"`
	PredictedReplicaMS     float64 `json:"predicted_replica_ms"`
	PredictedTotalMS       float64 `json:"predicted_total_ms"`
	ActualReplicaMeanMS    float64 `json:"actual_replica_mean_ms"`
	ActualReplicaSlowestMS float64 `json:"actual_replica_slowest_ms"`
	// ActualTotalMS sums the replica wall clocks — comparable to the
	// predicted total, which prices serial work (the fleet runs replicas in
	// parallel, so the job's wall clock is smaller).
	ActualTotalMS float64 `json:"actual_total_ms"`
	WallMS        float64 `json:"wall_ms"`
	// ErrorRatio is actual/predicted per-replica mean: 1 = perfect, >1 the
	// model under-priced, <1 over-priced.
	ErrorRatio float64 `json:"error_ratio"`
}

// qosSection is the "qos" block of BENCH_results.json.
type qosSection struct {
	Quick  bool    `json:"quick"`
	WallMS float64 `json:"wall_ms"`
	// MeanAbsLogError is the mean |log2(actual/predicted)| across workloads
	// — 0 means every prediction was exact, 1 means off by 2× on average.
	// DeriveDeadline's 8× slack tolerates up to 3 here before a
	// well-behaved job could be killed by its own derived deadline.
	MeanAbsLogError float64 `json:"mean_abs_log_error"`
	// Corrections are the per-tier EWMA multipliers after all observations
	// fed back — what a server that ran this mix would be predicting with.
	Corrections map[string]float64  `json:"corrections"`
	Workloads   []qosWorkloadResult `json:"workloads"`
	// Skipped lists workloads not run (whale under -quick).
	Skipped []string `json:"skipped,omitempty"`
}

// qosWorkloads returns the calibration mix, one or more specs per size
// class. The whale is genuinely whale-classed (≥ 30s predicted serial
// work), so -quick drops it to keep the mode fast.
func qosWorkloads(quick bool) (run []expt.JobSpec, skipped []string) {
	run = []expt.JobSpec{
		// Interactive: the cluster tests' spec — milliseconds of work.
		{Protocol: "exactmajority", N: 400, Seed: 7, Replicas: 12, Gap: 2},
		// Interactive: counted kernel in its leaping regime.
		{Protocol: "approxmajority", N: 100_000, Seed: 11, Replicas: 4, Gap: 10_000},
		// Batch: ~0.7s per replica × 4 on the raw grid.
		{Protocol: "approxmajority", N: 1_000_000, Seed: 13, Replicas: 4, Gap: 100_000},
		// Batch: coalescence's Θ(n) rounds make n=1e5 seconds of work.
		{Protocol: "coalescence", N: 100_000, Seed: 17, Replicas: 1},
	}
	whale := expt.JobSpec{Protocol: "approxmajority", N: 1_000_000, Seed: 19, Replicas: 48, Gap: 100_000}
	if quick {
		return run, []string{fmt.Sprintf("%s n=%d replicas=%d (whale; -quick)", whale.Protocol, whale.N, whale.Replicas)}
	}
	return append(run, whale), nil
}

// runQoS is the -qos entry point.
func runQoS(out string, quick bool, workers int, gridPath string) int {
	model, err := qos.NewModel(qos.ModelOptions{GridPath: gridPath})
	if err != nil {
		fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
		return 1
	}
	reg := catalog.NewRegistry()
	specs, skipped := qosWorkloads(quick)
	sec := qosSection{Quick: quick, Skipped: skipped}

	// Price every workload off the raw grid BEFORE any run feeds the EWMA:
	// each entry then reports pure grid error and keeps its designed class,
	// instead of inheriting whatever correction the previous workload's
	// observations happened to leave behind. The corrections map at the end
	// still shows where the feedback loop converged.
	type pricedWorkload struct {
		spec expt.JobSpec
		p    *catalog.Protocol
		pred qos.Prediction
	}
	priced := make([]pricedWorkload, 0, len(specs))
	for _, spec := range specs {
		p, err := reg.Normalize(&spec, math.MaxInt32, 1<<20)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: qos workload %s/%d: %v\n", spec.Protocol, spec.N, err)
			return 1
		}
		priced = append(priced, pricedWorkload{spec: spec, p: p, pred: model.Predict(spec, p.Kind)})
	}

	begin := time.Now()
	var absLogSum float64
	for _, w := range priced {
		spec, p, pred := w.spec, w.p, w.pred

		var mu sync.Mutex
		var total, slowest time.Duration
		var count int
		observe := func(r fleet.Result) {
			model.Observe(pred, r.Elapsed)
			mu.Lock()
			total += r.Elapsed
			if r.Elapsed > slowest {
				slowest = r.Elapsed
			}
			count++
			mu.Unlock()
		}
		start := time.Now()
		err = p.Run(context.Background(), spec, catalog.RunOptions{Workers: workers, Observe: observe},
			func(expt.ReplicaRecord) {})
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: qos workload %s/%d: %v\n", spec.Protocol, spec.N, err)
			return 1
		}
		if count == 0 {
			fmt.Fprintf(os.Stderr, "popbench: qos workload %s/%d ran no replicas\n", spec.Protocol, spec.N)
			return 1
		}
		mean := total / time.Duration(count)
		ratio := float64(mean) / float64(pred.PerReplica)
		absLogSum += math.Abs(math.Log2(ratio))
		res := qosWorkloadResult{
			Class:                  pred.Class.String(),
			Protocol:               spec.Protocol,
			N:                      spec.N,
			Replicas:               spec.Replicas,
			Tier:                   pred.Tier,
			Correction:             pred.Correction,
			PredictedReplicaMS:     ms(pred.PerReplica),
			PredictedTotalMS:       ms(pred.Total),
			ActualReplicaMeanMS:    ms(mean),
			ActualReplicaSlowestMS: ms(slowest),
			ActualTotalMS:          ms(total),
			WallMS:                 ms(wall),
			ErrorRatio:             ratio,
		}
		sec.Workloads = append(sec.Workloads, res)
		fmt.Printf("%-12s %-15s n=%-9d replicas=%-3d tier=%-9s predicted=%8.1fms/replica actual=%8.1fms/replica ratio=%.2f\n",
			pred.Class, spec.Protocol, spec.N, spec.Replicas, pred.Tier,
			res.PredictedReplicaMS, res.ActualReplicaMeanMS, ratio)
	}
	sec.WallMS = ms(time.Since(begin))
	sec.MeanAbsLogError = absLogSum / float64(len(sec.Workloads))
	sec.Corrections = model.Corrections()
	fmt.Printf("\nmean |log2(actual/predicted)| = %.3f (deadline slack tolerates 3.0)\n", sec.MeanAbsLogError)
	for tier, c := range sec.Corrections {
		fmt.Printf("correction[%s] = %.3f\n", tier, c)
	}

	if err := mergeSection(filepath.Join(out, "BENCH_results.json"), "qos", sec); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// mergeSection writes one named block into BENCH_results.json, preserving
// an existing experiments document if one is present (the -qos and
// -compare modes must not clobber a prior full run — the modes share the
// file).
func mergeSection(path, key string, sec any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("existing %s is not JSON (%v); refusing to overwrite", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc[key] = sec
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "popbench: wrote %s section into %s\n", key, path)
	return nil
}
