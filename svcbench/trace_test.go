package main

import "testing"

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	children := []span{
		{StartNS: 10, EndNS: 30},
		{StartNS: 20, EndNS: 40},  // overlaps the first: [10, 40) counts once
		{StartNS: 90, EndNS: 120}, // clipped to the parent: 10
		{StartNS: -5, EndNS: 5},   // clipped: 5
		{StartNS: 200, EndNS: 300},
	}
	if got, want := selfTime(parent, children), int64(100-30-10-5); got != want {
		t.Fatalf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestLayerMetricsFromSpans(t *testing.T) {
	spans := []span{
		{Req: 0, ID: 1, Name: "http.request", StartNS: 0, EndNS: 1000},
		{Req: 0, ID: 2, Parent: 1, Name: "cluster.shard", StartNS: 100, EndNS: 600},
		{Req: 0, ID: 3, Parent: 1, Name: "cluster.shard", StartNS: 200, EndNS: 900},
		{Req: 0, ID: 4, Name: "replay", StartNS: 1000, EndNS: 1800},
		{Req: 0, ID: 5, Parent: 4, Name: "fleet.run", StartNS: 1100, EndNS: 1700},
		{Req: 0, ID: 6, Parent: 5, Name: "replica", StartNS: 1100, EndNS: 1400, Runner: "dense", Interactions: 30, PredictedNS: 300},
		{Req: 0, ID: 7, Parent: 5, Name: "replica", StartNS: 1400, EndNS: 1600, N: 10, Rounds: 2},
	}
	m := layerMetrics(spans, traceInputs{requests: 1, workers: 2})
	for name, want := range map[string]float64{
		"engine.dense.replicas":           1,
		"engine.dense.ns_per_interaction": 10,
		"frame.replicas":                  1,
		"frame.ns_per_agent_round":        10,
		"fleet.overhead_ms":               100.0 / 1e6,
		"qos.abs_log_error":               0,
		"cluster.shards_per_job":          2,
		"cluster.merge_overhead_ms":       200.0 / 1e6,
		"cluster.parallel_efficiency":     500.0 / 2000,
		"serve.http_overhead_us":          200.0 / 1e3,
		"trace.replica_coverage":          0.5,
	} {
		if got := m[name]; got < want-1e-12 || got > want+1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
