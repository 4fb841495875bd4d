package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"popkit/internal/serve"
)

// calibrateShapes measures every workload shape in process over seeds
// seeds and prints its per-replica cost and coefficient of variation — the
// figures README.md lists. It times Protocol.Run only, without HTTP. Seeds
// are the outer loop, so host drift during calibration spreads over every
// shape instead of biasing the ones measured last.
func calibrateShapes(seeds int, stdout, stderr io.Writer) int {
	reg := serve.NewRegistry()
	type row struct {
		w  string
		s  shape
		xs []float64
	}
	var rows []*row
	for _, w := range workloads {
		for _, s := range w.shapes {
			rows = append(rows, &row{w: w.name, s: s})
		}
	}
	for k := 0; k < seeds; k++ {
		for _, r := range rows {
			spec := r.s.spec(mix(0xca11b, uint64(k)))
			t0 := time.Now()
			if _, err := compute(reg, spec, coldMaxN); err != nil {
				fmt.Fprintf(stderr, "svcbench: %s: %v\n", r.s, err)
				return 1
			}
			r.xs = append(r.xs, float64(time.Since(t0).Nanoseconds())/1e6/float64(r.s.Replicas))
		}
	}
	for _, r := range rows {
		m := mean(r.xs)
		var v float64
		for _, x := range r.xs {
			v += (x - m) * (x - m)
		}
		cv := 0.0
		if len(r.xs) > 1 {
			cv = math.Sqrt(v/float64(len(r.xs)-1)) / m
		}
		fmt.Fprintf(stdout, "%-8s %-32s per_replica_ms=%8.2f request_ms=%8.1f cv=%.3f\n",
			r.w, r.s, m, m*float64(r.s.Replicas), cv)
	}
	return 0
}
