package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"popkit/internal/catalog"
	"popkit/internal/expt"
	"popkit/internal/stats"
)

// The -compare mode runs the related-work protocol library head-to-head
// against the repo's incumbent entries, through the same registry code
// popserved serves. Two families: leader election (leader, coalescence,
// gs18leader) and exact majority at the adversarial gap 1 (exactmajority,
// gsexactmajority, aagmajority). For every (protocol, n) cell it records
// convergence time (parallel rounds and scheduler interactions), the
// per-agent state count, and the empirical correctness probability, into
// the "compare" section of BENCH_results.json — the measured table behind
// EXPERIMENTS.md's head-to-head comparison.

// compareRow is one (protocol, n) cell of the grid.
type compareRow struct {
	Family   string `json:"family"` // "leader" or "majority"
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	Seeds    int    `json:"seeds"`
	// States is the per-agent state count at this n (the space axis of the
	// time/space trade-off the related work optimizes).
	States uint64 `json:"states"`
	// Runner is the kernel tier the driver ran on ("framework" for the
	// paper's program executor, which bypasses runner selection).
	Runner     string  `json:"runner"`
	MeanRounds float64 `json:"mean_rounds"`
	P90Rounds  float64 `json:"p90_rounds"`
	// MeanInteractions is 0 for framework protocols, whose executor does
	// not count scheduler activations.
	MeanInteractions float64 `json:"mean_interactions"`
	Converged        int     `json:"converged"`
	// Correct counts replicas that converged to the right answer: a unique
	// leader, or the true (A) majority at gap 1.
	Correct     int     `json:"correct"`
	CorrectProb float64 `json:"correct_prob"`
	WallMS      float64 `json:"wall_ms"`
}

// compareSection is the "compare" block of BENCH_results.json.
type compareSection struct {
	Quick  bool         `json:"quick"`
	Seeds  int          `json:"seeds"`
	Grid   []int        `json:"grid"`
	WallMS float64      `json:"wall_ms"`
	Rows   []compareRow `json:"rows"`
	// Table is the Markdown-renderable form of Rows, printed to stdout and
	// pasted into EXPERIMENTS.md.
	Table *stats.Table `json:"table"`
}

// compareCell is one grid cell before it runs.
type compareCell struct {
	family   string
	protocol string
	n        int
	gap      int
}

// compareGrid enumerates the head-to-head cells. -quick keeps the two
// sizes the CI smoke asserts on; the full grid adds n = 8192.
func compareGrid(quick bool) (cells []compareCell, ns []int, seeds int) {
	ns = []int{512, 2048}
	seeds = 3
	if !quick {
		ns = append(ns, 8192)
		seeds = 8
	}
	leaders := []string{"leader", "coalescence", "gs18leader"}
	majorities := []string{"exactmajority", "gsexactmajority", "aagmajority"}
	for _, n := range ns {
		for _, p := range leaders {
			cells = append(cells, compareCell{family: "leader", protocol: p, n: n})
		}
		for _, p := range majorities {
			cells = append(cells, compareCell{family: "majority", protocol: p, n: n, gap: 1})
		}
	}
	return cells, ns, seeds
}

// compareCorrect judges one replica record: did it converge to the right
// answer? The leader family must end with exactly one leader; the majority
// family starts with A ahead by the gap, so the only correct verdict is
// unanimous A.
func compareCorrect(protocol string, n int, rec expt.ReplicaRecord) bool {
	if !rec.Converged || rec.Err != "" {
		return false
	}
	switch protocol {
	case "leader", "coalescence", "gs18leader":
		return rec.Counts["L"] == 1
	case "exactmajority":
		return rec.Counts["A"] == int64(n)
	case "gsexactmajority", "aagmajority":
		return rec.Counts["TokB"] == 0 && rec.Counts["Out"] == int64(n)
	}
	return false
}

// runCompare is the -compare entry point.
func runCompare(out string, quick bool, workers int, baseSeed uint64) int {
	reg := catalog.NewRegistry()
	cells, ns, seeds := compareGrid(quick)
	sec := compareSection{Quick: quick, Seeds: seeds, Grid: ns}
	table := stats.NewTable("Related-work head-to-head (gap 1 for majority)",
		"family", "protocol", "n", "states", "runner", "mean rounds", "p90 rounds", "mean interactions", "correct")

	begin := time.Now()
	for i, cell := range cells {
		spec := expt.JobSpec{
			Protocol: cell.protocol,
			N:        cell.n,
			Gap:      cell.gap,
			Replicas: seeds,
			// Distinct roots per cell keep replica streams independent
			// across the grid while staying a pure function of -seed.
			Seed: baseSeed + uint64(i+1)<<32,
		}
		p, err := reg.Normalize(&spec, 1<<21, 1<<12)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: compare cell %s/%d: %v\n", cell.protocol, cell.n, err)
			return 1
		}
		var recs []expt.ReplicaRecord
		start := time.Now()
		err = p.Run(context.Background(), spec, catalog.RunOptions{Workers: workers},
			func(rec expt.ReplicaRecord) { recs = append(recs, rec) })
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: compare cell %s/%d: %v\n", cell.protocol, cell.n, err)
			return 1
		}
		row := compareRow{
			Family:   cell.family,
			Protocol: cell.protocol,
			N:        cell.n,
			Seeds:    seeds,
			Runner:   "framework",
			WallMS:   ms(wall),
		}
		if p.States != nil {
			row.States = p.States(cell.n)
		}
		var rounds []float64
		var interSum float64
		for _, rec := range recs {
			rounds = append(rounds, rec.Rounds)
			interSum += float64(rec.Interactions)
			if rec.Converged {
				row.Converged++
			}
			if compareCorrect(cell.protocol, cell.n, rec) {
				row.Correct++
			}
			if rec.Runner != "" {
				row.Runner = rec.Runner
			}
		}
		sum := stats.Summarize(rounds)
		row.MeanRounds = sum.Mean
		row.P90Rounds = sum.P90
		row.MeanInteractions = interSum / float64(len(recs))
		row.CorrectProb = float64(row.Correct) / float64(seeds)
		sec.Rows = append(sec.Rows, row)
		table.AddRow(row.Family, row.Protocol, row.N, fmt.Sprintf("%d", row.States), row.Runner,
			row.MeanRounds, row.P90Rounds, row.MeanInteractions,
			fmt.Sprintf("%d/%d", row.Correct, seeds))
		fmt.Fprintf(os.Stderr, "popbench: compare %-8s %-16s n=%-5d %d/%d correct, mean %.0f rounds (%.0fms)\n",
			cell.family, cell.protocol, cell.n, row.Correct, seeds, row.MeanRounds, row.WallMS)
	}
	sec.WallMS = ms(time.Since(begin))
	sec.Table = table
	fmt.Println(table.Markdown())

	if err := mergeSection(filepath.Join(out, "BENCH_results.json"), "compare", sec); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
		return 1
	}
	return 0
}
