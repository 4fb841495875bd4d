// Command svcbench is popkit's end-to-end service benchmark. It starts
// popserved (and, for the sharded workload, popcoord over two popserved
// workers) in process on loopback, drives them over HTTP from one
// closed-loop client, checks every response, and prints the metrics as one
// JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash svcbench/run.sh --workload cold|hot|sharded --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of an untraced timed phase;
// --trace 1 runs the same timed phase, then one traced pass over the same
// requests, and reports the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"popkit/internal/expt"
	"popkit/internal/qos"
	"popkit/internal/serve"
	"popkit/internal/store"
)

// maxReplicas is popserved's -max-replicas default.
const maxReplicas = 1024

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupsPerRun is how many times a run sets up; setup_s is the median.
const setupsPerRun = 3

type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	dir     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold | hot | sharded")
	seed := fs.Uint64("seed", 1, "workload seed (spec seeds and request order)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory for stores, fingerprints and span files")
	calibrate := fs.Int("calibrate", 0, "print each shape's per-replica cost over this many seeds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *calibrate > 0 {
		return calibrateShapes(*calibrate, stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "svcbench: need --workload cold|hot|sharded, --seconds > 0, --trace 0|1")
		return 2
	}
	res, diag, err := bench(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir})
	for _, line := range diag {
		fmt.Fprintln(stdout, "#", line)
	}
	if err != nil {
		// Infrastructure failure (a server that would not start, a full
		// disk): no result line.
		fmt.Fprintf(stderr, "svcbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "svcbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// e2eNames lists the end-to-end metrics of an untraced run with their units.
var e2eNames = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hotPool is the hot workload's committed pool: each entry's set-up miss
// body, which every later hit must equal byte for byte, and its
// interaction sum.
type hotPool struct {
	bodies [][]byte
	inter  []uint64
}

// checks collects output-check failures; any one makes the run incorrect.
type checks struct{ errs []string }

func (c *checks) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

func bench(cfg config) (result, []string, error) {
	var diag []string
	note := func(format string, args ...any) { diag = append(diag, fmt.Sprintf(format, args...)) }
	if err := checkShapes(cfg.w); err != nil {
		return result{}, diag, err
	}
	p := newPlan(cfg.w, cfg.seed)
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	probeBefore := hostProbe()

	// Set-up, several times; the last stack stays up for the timed phase.
	var (
		st     *stack
		pool   *hotPool
		setups []float64
		ck     checks
	)
	n := setupsPerRun
	if cfg.trace {
		n = 1 // the traced run reports no setup_s
	}
	for i := 0; i < n; i++ {
		var (
			d   time.Duration
			err error
		)
		st, pool, d, err = setup(p, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), nil, &ck)
		if err != nil {
			return result{}, diag, err
		}
		setups = append(setups, d.Seconds())
		if i < n-1 {
			if err := st.close(); err != nil {
				return result{}, diag, err
			}
		}
	}

	minReq := cfg.w.minRequests()
	ph := timedPhase(st, p, pool, cfg.seconds, minReq, &ck)
	recheck(p, ph, &ck)
	if err := st.close(); err != nil {
		return result{}, diag, err
	}

	res := result{Attempted: ph.attempted, Failed: ph.failed}
	p50, err50 := percentile(ph.latMS, 0.5)
	p90, err90 := percentile(ph.latMS, 0.9)
	if err := errors.Join(err50, err90); err != nil {
		ck.fail("timed phase: %v", err)
	}
	note("workload=%s seed=%d requests=%d failed=%d wall_s=%.3f", cfg.w.name, cfg.seed, ph.attempted, ph.failed, ph.wall.Seconds())
	note("fingerprint requests=%d sha256=%s interactions=%d", minReq, ph.digest, ph.interactions)
	if err := ledger(cfg, minReq, ph); err != nil {
		ck.fail("%v", err)
	}
	note("setups_s=%v", fmtList(setups))

	if cfg.trace {
		tr := newTracer()
		in, err := tracedPass(p, tr, cfg.w.tracedRequests(), filepath.Join(runDir, "traced"), &ck)
		if err != nil {
			return result{}, diag, err
		}
		res.Attempted += in.requests
		res.Failed += in.failed
		in.untracedP50 = p50
		in.mallocsPerRq = float64(ph.mallocs) / float64(ph.attempted)
		in.bytesPerRq = float64(ph.bodyBytes) / float64(ph.attempted)
		lm := layerMetrics(tr.snapshot(), in)
		res.Metrics = map[string]metric{}
		for _, ln := range layerNames {
			res.Metrics[ln.name] = metric{lm[ln.name], ln.unit}
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.ndjson", cfg.w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, diag, err
		}
		note("spans written to %s", path)
	} else {
		v := map[string]float64{
			"latency_p50_ms": p50,
			"latency_p90_ms": p90,
			"jobs_per_s":     float64(ph.attempted-ph.failed) / ph.wall.Seconds(),
			"setup_s":        median(setups),
			"heap_live_mb":   float64(ph.heapLive) / 1e6,
		}
		res.Metrics = map[string]metric{}
		for _, e := range e2eNames {
			res.Metrics[e.name] = metric{v[e.name], e.unit}
		}
	}
	res.Correct = len(ck.errs) == 0
	note("host_probe_ms before=%.1f after=%.1f (diagnostic only)", ms(probeBefore), ms(hostProbe()))
	for i, e := range ck.errs {
		if i == 10 {
			note("... %d more check failures", len(ck.errs)-10)
			break
		}
		note("CHECK FAILED: %s", e)
	}
	return res, diag, nil
}

// setup builds the workload's servers and brings them to the state the
// timed phase starts from: healthy, workers probed, the hot pool
// committed, and one untimed warm-up request per shape. It returns the time
// that took.
func setup(p *plan, dir string, shardClient *http.Client, ck *checks) (*stack, *hotPool, time.Duration, error) {
	t0 := time.Now()
	st, err := newStack(p.w, dir, shardClient)
	if err != nil {
		return nil, nil, 0, err
	}
	cl := newLoadClient(st.front.url)
	defer cl.close()
	var pool *hotPool
	warm := p.warmups()
	if p.w.pool > 0 {
		pool = &hotPool{}
		for k, spec := range p.pool {
			r, err := cl.post(spec)
			if err != nil {
				st.close()
				return nil, nil, 0, err
			}
			inter, err := checkBody(spec, r.status, r.body)
			if err != nil || r.cache != "miss" {
				ck.fail("pool %d (%v): cache %q: %v", k, spec, r.cache, err)
			}
			pool.bodies = append(pool.bodies, r.body)
			pool.inter = append(pool.inter, inter)
		}
		warm = p.pool[:1]
	}
	for _, spec := range warm {
		r, err := cl.post(spec)
		if err != nil {
			st.close()
			return nil, nil, 0, err
		}
		if _, err := checkBody(spec, r.status, r.body); err != nil {
			ck.fail("warm-up %v: %v", spec, err)
		}
	}
	return st, pool, time.Since(t0), nil
}

// phase is what one timed phase measured.
type phase struct {
	latMS             []float64
	wall              time.Duration
	attempted, failed int
	bodyBytes         int64
	mallocs           uint64
	heapLive          uint64
	// digest and interactions are the work fingerprint over the first
	// minRequests responses.
	digest       string
	interactions uint64
	// sampled holds the body digests of the requests recheck recomputes.
	sampled map[int][32]byte
}

// timedPhase sends requests in whole cycles until the time is up and the
// request floor is reached. Every response is checked.
func timedPhase(st *stack, p *plan, pool *hotPool, seconds float64, minReq int, ck *checks) phase {
	ph := phase{latMS: make([]float64, 0, 1<<12), sampled: map[int][32]byte{}}
	want := map[int]bool{}
	if p.w.pool == 0 {
		for _, i := range p.sample(minReq) {
			want[i] = true
		}
	}
	cl := newLoadClient(st.front.url)
	defer cl.close()
	fp := sha256.New()
	cycle := p.w.cycleLen()
	limit := time.Duration(seconds * float64(time.Second))
	// A run must finish; past this the floor is abandoned and the missing
	// p90 samples fail the run.
	hardStop := 2*limit + 60*time.Second

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	done0 := st.replicasCompleted()
	t0 := time.Now()
	for i := 0; ; i++ {
		el := time.Since(t0)
		if i%cycle == 0 && ((i >= minReq && el >= limit) || el >= hardStop) {
			break
		}
		spec, k := p.request(i)
		ph.attempted++
		r, err := cl.post(spec)
		if err != nil {
			ph.failed++
			ck.fail("request %d (%v): %v", i, spec, err)
			continue
		}
		ph.latMS = append(ph.latMS, float64(r.latency.Nanoseconds())/1e6)
		ph.bodyBytes += int64(len(r.body))
		var inter uint64
		switch {
		case pool != nil:
			// Hits must equal the set-up miss byte for byte, which was
			// itself fully checked.
			if r.status != http.StatusOK || r.cache != "hit" || !bytes.Equal(r.body, pool.bodies[k]) {
				err = fmt.Errorf("status %d cache %q: body differs from its set-up miss", r.status, r.cache)
			}
			inter = pool.inter[k]
		default:
			inter, err = checkBody(spec, r.status, r.body)
			if err == nil && st.hasStore && r.cache != "miss" {
				err = fmt.Errorf("cache %q, want miss", r.cache)
			}
		}
		if err != nil {
			ph.failed++
			ck.fail("request %d (%v): %v", i, spec, err)
		}
		if i < minReq {
			fp.Write(r.body)
			ph.interactions += inter
		}
		if want[i] {
			ph.sampled[i] = sha256.Sum256(r.body)
		}
	}
	ph.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	ph.mallocs = ms.Mallocs - mallocs0
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	// The latency buffer is the only client state that grows with the
	// request count; leave it out so the figure is the servers' (plus a
	// constant) whatever the run's length.
	ph.heapLive = ms.HeapAlloc - uint64(cap(ph.latMS))*8
	if p.w.pool > 0 {
		if done := st.replicasCompleted(); done != done0 {
			ck.fail("hot: replicas_completed moved %d → %d during the timed phase", done0, done)
		}
	}
	ph.digest = hex.EncodeToString(fp.Sum(nil))
	return ph
}

// recheck recomputes the sampled responses in process through
// Registry.Normalize and Protocol.Run — the popsim -ndjson path — and
// requires each to match the served bytes.
func recheck(p *plan, ph phase, ck *checks) {
	reg := serve.NewRegistry()
	for i, got := range ph.sampled {
		spec, _ := p.request(i)
		body, err := compute(reg, spec, maxNFor(p.w))
		if err != nil {
			ck.fail("recheck %d (%v): %v", i, spec, err)
			continue
		}
		if sha256.Sum256(body) != got {
			ck.fail("recheck %d (%v): served bytes differ from the in-process run", i, spec)
		}
	}
}

// compute runs a spec in process and returns its NDJSON stream.
func compute(reg *serve.Registry, spec expt.JobSpec, maxN int) ([]byte, error) {
	proto, err := reg.Normalize(&spec, maxN, maxReplicas)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var encErr error
	err = proto.Run(context.Background(), spec, serve.RunOptions{Workers: 1, MaxRetries: maxRetries}, func(rec expt.ReplicaRecord) {
		line, err := rec.MarshalLine()
		if err != nil {
			encErr = err
			return
		}
		buf.Write(line)
	})
	return buf.Bytes(), errors.Join(err, encErr)
}

// ledger compares the work fingerprint with the one an earlier run at the
// same (workload, seed) left in the scratch directory; a mismatch fails
// the run.
func ledger(cfg config, minReq int, ph phase) error {
	path := filepath.Join(cfg.dir, "fingerprints", fmt.Sprintf("%s-%d-%d.txt", cfg.w.name, cfg.seed, minReq))
	line := fmt.Sprintf("sha256=%s interactions=%d\n", ph.digest, ph.interactions)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if string(prev) != line {
			return fmt.Errorf("work fingerprint %q differs from an earlier run at this seed: %q", strings.TrimSpace(line), strings.TrimSpace(string(prev)))
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(line), 0o644)
	default:
		return err
	}
}

// tracedPass brings up a fresh stack (so cold requests miss again), sends
// the first n requests of the plan as http.request spans, and replays each
// in process against a separate store.
func tracedPass(p *plan, tr *tracer, n int, dir string, ck *checks) (traceInputs, error) {
	in := traceInputs{}
	var shardClient *http.Client
	if p.w.name == "sharded" {
		shardClient = &http.Client{Transport: &shardTransport{base: http.DefaultTransport, tr: tr}}
		in.workers = 2
	}
	st, pool, _, err := setup(p, filepath.Join(dir, "servers"), shardClient, ck)
	if err != nil {
		return in, err
	}
	defer st.close()
	rp := &replayer{tr: tr, reg: serve.NewRegistry(), maxN: maxNFor(p.w)}
	// A fresh model prices with the raw grid, so its error does not depend
	// on what the run happened to observe before.
	if rp.model, err = qos.NewModel(qos.ModelOptions{}); err != nil {
		return in, err
	}
	if st.hasStore {
		if rp.st, err = store.Open(store.Options{Dir: filepath.Join(dir, "replay-store")}); err != nil {
			return in, err
		}
		defer rp.st.Close()
		if pool != nil {
			for k, spec := range p.pool {
				if _, err := rp.reg.Normalize(&spec, rp.maxN, maxReplicas); err != nil {
					return in, err
				}
				if _, err := rp.st.Commit(spec, splitLines(pool.bodies[k])); err != nil {
					return in, err
				}
			}
		}
	}
	if in.before, err = readCounters(st); err != nil {
		return in, err
	}
	done0 := st.replicasCompleted()
	cl := newLoadClient(st.front.url)
	defer cl.close()
	for i := 0; i < n; i++ {
		spec, _ := p.request(i)
		tr.curReq.Store(int64(i))
		id := tr.open(i, 0, "http.request")
		tr.curSpan.Store(int64(id))
		r, err := cl.post(spec)
		tr.finish(id)
		tr.curSpan.Store(0)
		in.requests++
		if err == nil {
			_, err = checkBody(spec, r.status, r.body)
		}
		if err != nil {
			in.failed++
			ck.fail("traced request %d (%v): %v", i, spec, err)
			continue
		}
		if r.cache == "hit" {
			in.cacheHits++
		}
		body, err := rp.replay(i, spec)
		if err != nil {
			ck.fail("replay %d (%v): %v", i, spec, err)
		} else if !bytes.Equal(body, r.body) {
			ck.fail("replay %d (%v): in-process bytes differ from the served ones", i, spec)
		}
	}
	in.retries = rp.retries
	if done := st.replicasCompleted(); pool != nil && done != done0 {
		ck.fail("hot: replicas_completed moved %d → %d during the traced pass", done0, done)
	}
	if in.after, err = readCounters(st); err != nil {
		return in, err
	}
	return in, nil
}

func splitLines(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return append(out, b)
		}
		out = append(out, b[:i+1])
		b = b[i+1:]
	}
	return out
}

// probeSink keeps the probe loop from being optimised away.
var probeSink uint64

// hostProbe times a fixed pure-Go loop that touches no repository code. It
// is printed beside the metrics to show host drift and never rescales them.
func hostProbe() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<27; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
