package expt

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "A3", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "F1", "F2", "F3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("position %d: %s, want %s", i, all[i].ID, id)
		}
		if all[i].Claim == "" {
			t.Errorf("%s has no claim", id)
		}
	}
	if _, ok := Lookup("E7"); !ok {
		t.Error("Lookup(E7) failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("Lookup(E99) found a ghost")
	}
}

// TestQuickExperiments smoke-runs every registered experiment end to end
// in Quick mode with few seeds, checking each produces populated tables.
func TestQuickExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are long")
	}
	cfg := Config{Seeds: 2, Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(cfg)
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range res.Tables {
				if tb.NumRows() == 0 {
					t.Errorf("table %q empty", tb.Title)
				}
				if !strings.Contains(tb.Markdown(), "|") {
					t.Errorf("table %q renders nothing", tb.Title)
				}
			}
			for name, csv := range res.Figures {
				if len(csv) < 10 {
					t.Errorf("figure %s nearly empty", name)
				}
			}
		})
	}
}
