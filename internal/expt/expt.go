// Package expt defines the reproduction experiments E1–E12 and the figure
// series F1–F3 indexed in DESIGN.md. Each experiment regenerates one
// quantitative claim of the paper as a table (and optionally CSV series);
// both cmd/popbench and the repository's benchmarks drive this package, so
// the numbers in EXPERIMENTS.md are reproducible from either entry point.
package expt

import (
	"context"
	"fmt"
	"io"
	"sort"

	"popkit/internal/fleet"
	"popkit/internal/stats"
)

// Config scales the experiments.
type Config struct {
	// Ctx, when non-nil, cancels the replica fleets of multi-seed sweeps:
	// on cancellation not-yet-started replicas are skipped and the sweep
	// aborts with context.Canceled attached (popbench turns SIGINT into
	// this). Nil means context.Background().
	Ctx context.Context
	// Seeds is the number of independent runs per configuration point.
	Seeds int
	// Quick restricts every experiment to its smallest configuration —
	// used by `go test` so the full suite stays fast; popbench unsets it.
	Quick bool
	// BaseSeed offsets all RNG seeds for independent replications.
	BaseSeed uint64
	// Workers sizes the replica fleet that multi-seed experiments fan out
	// onto; values < 1 mean one worker per CPU. Results are identical for
	// any worker count: every replica derives all randomness from its own
	// seed (see replicate).
	Workers int
	// Progress, when non-nil, receives fleet progress reports (replicas
	// done / in-flight / ETA) during long sweeps.
	Progress io.Writer
	// ReplicaSink, when non-nil, receives every replica result as it
	// completes (e.g. a fleet.JSONLSink for machine-readable run logs).
	ReplicaSink fleet.ResultSink
}

// Result is one experiment's output: tables for EXPERIMENTS.md plus
// optional named CSV figure series.
type Result struct {
	Tables  []*stats.Table
	Figures map[string]string // name → CSV
	// Interactions counts the scheduler activations simulated across the
	// experiment's runs, including activations leapt over by the counted
	// kernels. popbench divides wall time by it to report ns/interaction
	// in BENCH_results.json.
	Interactions uint64
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Claim string
	Run   func(cfg Config) Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders E1 < E2 < … < E12 < F1 < ….
func idLess(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	return na < nb
}

func splitID(id string) (string, int) {
	for i := 0; i < len(id); i++ {
		if id[i] >= '0' && id[i] <= '9' {
			var n int
			fmt.Sscanf(id[i:], "%d", &n)
			return id[:i], n
		}
	}
	return id, 0
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
