package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs one cycle of every workload through set-up, the timed
// phase and the in-process recheck, and one traced pass, and requires
// every output check to pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs jobs")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := newPlan(w, 7)
			dir := t.TempDir()
			var ck checks
			st, pool, _, err := setup(p, filepath.Join(dir, "setup"), nil, &ck)
			if err != nil {
				t.Fatal(err)
			}
			one := w.cycleLen()
			ph := timedPhase(st, p, pool, 0.001, one, &ck)
			recheck(p, ph, &ck)
			if err := st.close(); err != nil {
				t.Fatal(err)
			}
			if ph.attempted != one || ph.failed != 0 {
				t.Errorf("attempted %d failed %d, want %d and 0", ph.attempted, ph.failed, one)
			}
			if w.pool == 0 && len(ph.sampled) != len(w.shapes) {
				t.Errorf("rechecked %d responses, want one per shape (%d)", len(ph.sampled), len(w.shapes))
			}
			tr := newTracer()
			in, err := tracedPass(p, tr, one, filepath.Join(dir, "traced"), &ck)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ck.errs {
				t.Error(e)
			}
			m := layerMetrics(tr.snapshot(), in)
			switch w.name {
			case "hot":
				if m["store.hit_ratio"] != 1 || m["engine.dense.replicas"] != 0 {
					t.Errorf("hot: hit ratio %g, dense replicas %g; want 1 and 0", m["store.hit_ratio"], m["engine.dense.replicas"])
				}
			case "cold":
				if m["engine.aggregate.replicas"] == 0 || m["frame.replicas"] == 0 || m["store.commit_ms"] == 0 {
					t.Errorf("cold: aggregate %g frame %g commit %g; want all > 0", m["engine.aggregate.replicas"], m["frame.replicas"], m["store.commit_ms"])
				}
			case "sharded":
				if m["cluster.shards_per_job"] < 2 {
					t.Errorf("sharded: %g shards per job, want ≥ 2", m["cluster.shards_per_job"])
				}
			}
		})
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSONNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2eNames)
	same("per_layer", doc.PerLayer, layerNames)
	for _, w := range doc.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one of the program's", w.Name)
		}
	}
}
