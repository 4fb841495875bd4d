package main

import "testing"

// TestShapeGuard normalizes every shape under the limits of the server
// that will run it, and requires a non-zero gap on every majority-family
// shape: the HTTP default gap 0 is a tie, on which exactmajority never
// converges.
func TestShapeGuard(t *testing.T) {
	for _, w := range workloads {
		if err := checkShapes(w); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	bad := workload{name: "cold", shapes: []shape{{"exactmajority", 800, 1, 0}}}
	if err := checkShapes(bad); err == nil {
		t.Error("exactmajority with gap 0 passed the guard")
	}
}
