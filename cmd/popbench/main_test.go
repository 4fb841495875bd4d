package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"popkit/internal/expt"
)

// cutShort returns an experiment that cancels ctx and then runs the
// multi-seed experiment id on the cancelled context, as a SIGINT arriving
// mid-sweep would leave it.
func cutShort(t *testing.T, id string, cancel context.CancelFunc) expt.Experiment {
	t.Helper()
	e := lookup(t, id)[0]
	run := e.Run
	e.Run = func(cfg expt.Config) expt.Result {
		cancel()
		return run(cfg)
	}
	return e
}

// lookup returns the registered experiments ids, in the order given.
func lookup(t *testing.T, ids ...string) []expt.Experiment {
	t.Helper()
	var es []expt.Experiment
	for _, id := range ids {
		e, ok := expt.Lookup(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		es = append(es, e)
	}
	return es
}

// TestInterruptedExperimentSaysSo checks that an experiment cut short
// mid-run leaves one line under its heading, and that the loop stops there.
func TestInterruptedExperimentSaysSo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wanted := append(lookup(t, "E3"), cutShort(t, "E6", cancel))
	wanted = append(wanted, lookup(t, "E8")...)
	cfg := expt.Config{Ctx: ctx, Seeds: 2, Quick: true, Workers: 1}
	var out bytes.Buffer
	recs, interrupted, code := runExperiments(ctx, wanted, cfg, t.TempDir(), &out)
	if !interrupted || code != 0 || len(recs) != 1 || recs[0].ID != "E3" {
		t.Fatalf("interrupted %v, exit code %d, %d records; want true, 0 and E3's alone", interrupted, code, len(recs))
	}
	e6 := wanted[1]
	tail := "## E6 — " + e6.Claim + "\n\n_E6 interrupted (context canceled); no table written_\n\n"
	if !strings.HasSuffix(out.String(), tail) {
		t.Errorf("stdout does not end in E6's heading and the interruption line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "_E3 completed in ") {
		t.Errorf("stdout lacks E3's footer:\n%s", out.String())
	}
}

// TestExperimentsMergeByID runs two experiment sets with different
// configurations into one directory, then an interrupted run: every
// record survives with its own configuration, in expt.All() order.
func TestExperimentsMergeByID(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_results.json")
	// A -qos section an earlier run left must survive too.
	if err := os.WriteFile(path, []byte(`{"qos": {"rows": []}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runInto := func(ctx context.Context, wanted []expt.Experiment, seed uint64) {
		t.Helper()
		cfg := expt.Config{Ctx: ctx, Seeds: 2, Quick: true, BaseSeed: seed, Workers: 1}
		recs, interrupted, code := runExperiments(ctx, wanted, cfg, dir, io.Discard)
		if code != 0 {
			t.Fatalf("exit code %d", code)
		}
		bench := benchFile{Seeds: cfg.Seeds, Quick: cfg.Quick, BaseSeed: seed, Workers: 1, Interrupted: interrupted}
		if err := writeBench(path, bench, recs); err != nil {
			t.Fatal(err)
		}
	}
	runInto(context.Background(), lookup(t, "E6"), 5)
	runInto(context.Background(), lookup(t, "E3"), 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runInto(ctx, []expt.Experiment{cutShort(t, "E3", cancel)}, 9)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		BaseSeed    uint64          `json:"base_seed"`
		Interrupted bool            `json:"interrupted"`
		QoS         json.RawMessage `json:"qos"`
		Experiments []struct {
			ID       string `json:"id"`
			Seeds    int    `json:"seeds"`
			Quick    bool   `json:"quick"`
			BaseSeed uint64 `json:"base_seed"`
			Tables   []any  `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.BaseSeed != 9 || !doc.Interrupted || len(doc.QoS) == 0 {
		t.Errorf("top level: base_seed %d, interrupted %v, qos %q; want the last run's 9 and true, and the qos section kept", doc.BaseSeed, doc.Interrupted, doc.QoS)
	}
	wantSeed := map[string]uint64{"E3": 7, "E6": 5}
	var ids []string
	for _, r := range doc.Experiments {
		ids = append(ids, r.ID)
		if r.Seeds != 2 || !r.Quick || r.BaseSeed != wantSeed[r.ID] || len(r.Tables) == 0 {
			t.Errorf("%s: seeds %d, quick %v, base_seed %d, %d tables; want 2, true, %d and its tables", r.ID, r.Seeds, r.Quick, r.BaseSeed, len(r.Tables), wantSeed[r.ID])
		}
	}
	if got := strings.Join(ids, ","); got != "E3,E6" {
		t.Errorf("experiment ids %s, want E3,E6", got)
	}
}
