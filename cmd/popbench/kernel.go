package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
)

// The -kernel mode measures the raw simulation kernels outside the testing
// harness and commits the numbers: results/BENCH_kernel.json is the
// authoritative source for the capability matrix in EXPERIMENTS.md and for
// the per-firing costs quoted in internal/expt.CapabilityMatrix.

// kernelRow is one (runner, n) measurement.
type kernelRow struct {
	Runner  string `json:"runner"`
	N       int64  `json:"n"`
	Firings uint64 `json:"firings"`
	// Interactions includes the quiescent activations the counted kernels
	// leap over; for the dense runner it equals Firings' activation count.
	Interactions     uint64  `json:"interactions"`
	NsPerFiring      float64 `json:"ns_per_firing"`
	NsPerInteraction float64 `json:"ns_per_interaction"`
}

// kernelFile is the BENCH_kernel.json document.
type kernelFile struct {
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	NumCPU   int    `json:"num_cpu"`
	CPUModel string `json:"cpu_model,omitempty"`
	Workload string `json:"workload"`
	// PrePRCountedNsPerFiring is the counted kernel's per-firing cost before
	// the incremental match-count rework (BenchmarkCountStep at the parent
	// of the kernel PR): mean of three runs at 647.6, 778.8 and 808.1 ns.
	PrePRCountedNsPerFiring float64     `json:"prepr_counted_ns_per_firing"`
	Rows                    []kernelRow `json:"rows"`
}

// cpuModel best-effort reads the CPU model string (Linux only).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// measureCounted times `target` firings of the E11 exact-majority workload
// on the counted or batched kernel, rebuilding the population whenever the
// protocol reaches quiescence (rebuilds are excluded from the timing).
func measureCounted(batch bool, n int64, target uint64) kernelRow {
	em := baseline.NewExactMajority4()
	proto := engine.CompileProtocol(em.Rules())
	var busy time.Duration
	var fired, interactions uint64
	for fired < target {
		pop := em.Population(n/2+1, n/2)
		if batch {
			br := engine.NewBatchRunner(proto, pop, engine.NewRNG(1))
			t0 := time.Now()
			for fired < target && br.LeapStep(0) {
				fired++
			}
			busy += time.Since(t0)
			interactions += br.Interactions
		} else {
			cr := engine.NewCountRunner(proto, pop, engine.NewRNG(1))
			t0 := time.Now()
			for fired < target && cr.LeapStep(0) {
				fired++
			}
			busy += time.Since(t0)
			interactions += cr.Interactions
		}
	}
	name := "counted"
	if batch {
		name = "batch"
	}
	return kernelRow{
		Runner:           name,
		N:                n,
		Firings:          fired,
		Interactions:     interactions,
		NsPerFiring:      float64(busy.Nanoseconds()) / float64(fired),
		NsPerInteraction: float64(busy.Nanoseconds()) / float64(interactions),
	}
}

// measureAggregate times the aggregate kernel over a fixed budget of
// scheduler activations on the same workload. The budget is in
// interactions rather than firings because the aggregate runner resolves
// whole collision-free runs per step — ns_per_interaction is the number
// the kernels compete on. Rebuilds on quiescence are excluded from the
// timing, like measureCounted's.
func measureAggregate(n int64, targetInteractions uint64) kernelRow {
	em := baseline.NewExactMajority4()
	proto := engine.CompileProtocol(em.Rules())
	var busy time.Duration
	var fired, interactions uint64
	for interactions < targetInteractions {
		pop := em.Population(n/2+1, n/2)
		ar := engine.NewAggregateRunner(proto, pop, engine.NewRNG(1))
		left := targetInteractions - interactions
		t0 := time.Now()
		for ar.Interactions < left && ar.LeapStep(left) {
		}
		busy += time.Since(t0)
		interactions += ar.Interactions
		fired += ar.FiredTotal
	}
	return kernelRow{
		Runner:           "aggregate",
		N:                n,
		Firings:          fired,
		Interactions:     interactions,
		NsPerFiring:      float64(busy.Nanoseconds()) / float64(fired),
		NsPerInteraction: float64(busy.Nanoseconds()) / float64(interactions),
	}
}

// measureDense times `target` scheduler activations of the same workload on
// the per-agent dense runner through the loop serving uses: a tracker on
// the opinion and the stop condition handed to RunTracked, which steps with
// the RNG state in registers and re-checks the condition only when the
// tracked count moves. The runner cannot leap, so every activation counts,
// firing or not. A population that decides before the budget is rebuilt
// outside the timing.
func measureDense(n int64, target uint64) kernelRow {
	em := baseline.NewExactMajority4()
	proto := engine.CompileProtocol(em.Rules())
	a := em.Strong.Set(em.IsA.Set(bitmask.State{}, true), true)
	b := em.Strong.Set(bitmask.State{}, true)
	nA := int(n)/2 + 1
	rng := engine.NewRNG(1)
	var busy time.Duration
	var interactions uint64
	for interactions < target {
		pop := engine.NewDenseInit(int(n), func(i int) bitmask.State {
			if i < nA {
				return a
			}
			return b
		})
		r := engine.NewRunner(proto, pop, rng)
		ta := r.Track("A", bitmask.Is(em.IsA))
		decided := func() bool { c := int64(ta.Count()); return c == 0 || c == n }
		t0 := time.Now()
		r.RunTracked(decided, float64(target-interactions)/float64(n))
		busy += time.Since(t0)
		interactions += r.Interactions
	}
	ns := float64(busy.Nanoseconds()) / float64(interactions)
	return kernelRow{
		Runner:           "dense",
		N:                n,
		Firings:          interactions,
		Interactions:     interactions,
		NsPerFiring:      ns,
		NsPerInteraction: ns,
	}
}

// runKernel executes the kernel benchmark matrix and writes
// <out>/BENCH_kernel.json. Quick mode shrinks the firing budgets so
// `make check` can smoke-test the path.
func runKernel(out string, quick bool) int {
	target := uint64(1_000_000)
	denseTarget := uint64(2_000_000)
	if quick {
		target, denseTarget = 50_000, 100_000
	}
	kf := kernelFile{
		GOOS:                    runtime.GOOS,
		GOARCH:                  runtime.GOARCH,
		NumCPU:                  runtime.NumCPU(),
		CPUModel:                cpuModel(),
		Workload:                "E11 4-state exact majority [DV12], gap 1",
		PrePRCountedNsPerFiring: 745,
	}
	// The aggregate kernel's budget is in interactions (it fires whole
	// runs per step): ~100 activations per agent, capped so the biggest
	// populations stay measurable, and shrunk further in quick mode.
	aggTarget := func(n int64) uint64 {
		t := uint64(100 * n)
		if t > 1_000_000_000 {
			t = 1_000_000_000
		}
		if quick && t > 1_000_000 {
			t = 1_000_000
		}
		return t
	}
	for _, n := range []int64{1e4, 1e6} {
		kf.Rows = append(kf.Rows, measureDense(n, denseTarget))
	}
	for _, n := range []int64{1e4, 1e6, 1e8, 1e9} {
		kf.Rows = append(kf.Rows, measureCounted(false, n, target))
		kf.Rows = append(kf.Rows, measureCounted(true, n, target))
		kf.Rows = append(kf.Rows, measureAggregate(n, aggTarget(n)))
	}
	fmt.Printf("%-8s %12s %12s %14s %16s\n", "runner", "n", "firings", "ns/firing", "ns/interaction")
	for _, r := range kf.Rows {
		fmt.Printf("%-8s %12d %12d %14.1f %16.4f\n", r.Runner, r.N, r.Firings, r.NsPerFiring, r.NsPerInteraction)
	}
	path := filepath.Join(out, "BENCH_kernel.json")
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "popbench: encoding %s: %v\n", path, err)
		return 1
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: writing %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "popbench: wrote %s\n", path)
	return 0
}
