package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"popkit/internal/cluster"
	"popkit/internal/expt"
	"popkit/internal/fleet"
	"popkit/internal/qos"
	"popkit/internal/serve"
	"popkit/internal/store"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one request share Req; Parent is the enclosing span's
// ID (0 for a root).
type span struct {
	Req     int    `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Replica spans carry their record's kernel and work, and the cost
	// model's per-replica prediction.
	Runner       string  `json:"runner,omitempty"`
	N            int     `json:"n,omitempty"`
	Rounds       float64 `json:"rounds,omitempty"`
	Interactions uint64  `json:"interactions,omitempty"`
	PredictedNS  int64   `json:"predicted_ns,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// curReq and curSpan name the request in flight, so spans opened on
	// other goroutines (the coordinator's shard streams) attach to it. The
	// load is closed-loop, so at most one request is in flight.
	curReq  atomic.Int64
	curSpan atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its ID.
func (t *tracer) open(req, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, StartNS: start})
	return id
}

// finish ends span id.
func (t *tracer) finish(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// add records a span whose bounds are already known.
func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// shardTransport is the coordinator's RoundTripper in the traced run: each
// shard POST becomes a cluster.shard span, from dispatch to the end of its
// stream, under the request in flight.
type shardTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *shardTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent := int(t.tr.curSpan.Load())
	if r.Method != http.MethodPost || parent == 0 {
		// Health probes, and the set-up's warm-up shards, belong to no
		// traced request.
		return t.base.RoundTrip(r)
	}
	id := t.tr.open(int(t.tr.curReq.Load()), parent, "cluster.shard")
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.finish(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.finish(id) }}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// replayer re-runs a request in process, in the popserved handler's order,
// against its own store: Normalize → SpecHash → Store.Get → Model.Predict →
// Protocol.Run → MarshalLine → Store.Commit. Every call is a span.
type replayer struct {
	tr    *tracer
	reg   *serve.Registry
	model *qos.Model
	st    *store.Store // nil when the serving path has no store (sharded)
	maxN  int
	// retries sums fleet retry attempts over every replayed job.
	retries uint64
}

func (rp *replayer) replay(req int, spec expt.JobSpec) ([]byte, error) {
	tr := rp.tr
	root := tr.open(req, 0, "replay")
	defer tr.finish(root)

	s := tr.open(req, root, "serve.normalize")
	proto, err := rp.reg.Normalize(&spec, rp.maxN, maxReplicas)
	tr.finish(s)
	if err != nil {
		return nil, err
	}
	if rp.st != nil {
		s = tr.open(req, root, "expt.spec_hash")
		hash := expt.SpecHash(spec)
		tr.finish(s)
		s = tr.open(req, root, "store.get")
		lines, ok := rp.st.Get(hash)
		tr.finish(s)
		if ok {
			return bytes.Join(lines, nil), nil
		}
	}
	s = tr.open(req, root, "qos.predict")
	pred := rp.model.Predict(spec, proto.Kind)
	tr.finish(s)

	run := tr.open(req, root, "fleet.run")
	var (
		recs []expt.ReplicaRecord
		fst  fleet.Stats
	)
	err = proto.Run(context.Background(), spec, serve.RunOptions{
		Workers:    1,
		MaxRetries: maxRetries,
		FleetStats: &fst,
		Observe: func(r fleet.Result) {
			end := tr.now()
			rec, _ := r.Value.(expt.ReplicaRecord)
			tr.add(span{
				Req: req, Parent: run, Name: "replica",
				StartNS: end - r.Elapsed.Nanoseconds(), EndNS: end,
				Runner: rec.Runner, N: rec.N, Rounds: rec.Rounds, Interactions: rec.Interactions,
				PredictedNS: pred.PerReplica.Nanoseconds(),
			})
		},
	}, func(rec expt.ReplicaRecord) { recs = append(recs, rec) })
	tr.finish(run)
	rp.retries += fst.Totals().Retries
	if err != nil {
		return nil, err
	}
	lines := make([][]byte, 0, len(recs))
	for _, rec := range recs {
		s = tr.open(req, root, "expt.encode")
		line, err := rec.MarshalLine()
		tr.finish(s)
		if err != nil {
			return nil, err
		}
		lines = append(lines, line)
	}
	if rp.st != nil {
		s = tr.open(req, root, "store.commit")
		_, err := rp.st.Commit(spec, lines)
		tr.finish(s)
		if err != nil {
			return nil, err
		}
	}
	return bytes.Join(lines, nil), nil
}

// serverCounters are the program's own counters the traced run reads over
// /metrics: the workers' queue-wait histogram and the coordinator's
// re-dispatch count.
type serverCounters struct {
	queueWaitCount int64
	queueWaitMS    float64 // summed
	redispatches   int64
}

func readCounters(st *stack) (serverCounters, error) {
	var c serverCounters
	var urls []string
	if st.pop != nil {
		urls = append(urls, st.front.url)
	}
	for _, l := range st.wls {
		urls = append(urls, l.url)
	}
	for _, u := range urls {
		var snap serve.MetricsSnapshot
		if err := getJSON(u+"/metrics", &snap); err != nil {
			return c, err
		}
		if snap.QoS != nil {
			for _, t := range snap.QoS.Tenants {
				c.queueWaitCount += t.QueueWait.Count
				c.queueWaitMS += t.QueueWait.MeanMS * float64(t.QueueWait.Count)
			}
		}
	}
	if st.coord != nil {
		var snap cluster.MetricsSnapshot
		if err := getJSON(st.front.url+"/metrics", &snap); err != nil {
			return c, err
		}
		c.redispatches = snap.ShardsRedispatched
	}
	return c, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// traceInputs are the figures the per-layer table takes from outside the
// spans.
type traceInputs struct {
	requests     int
	failed       int
	cacheHits    int
	retries      uint64
	before       serverCounters
	after        serverCounters
	workers      int     // one-slot popserveds behind the coordinator (sharded)
	untracedP50  float64 // ms, from the same run's untraced timed phase
	mallocsPerRq float64
	bytesPerRq   float64
}

// layerNames lists every per-layer metric with its unit, in output order.
var layerNames = []struct{ name, unit string }{
	{"engine.dense.replicas", "count"},
	{"engine.dense.busy_s", "s"},
	{"engine.dense.ns_per_interaction", "ns"},
	{"engine.batch.replicas", "count"},
	{"engine.batch.busy_s", "s"},
	{"engine.aggregate.replicas", "count"},
	{"engine.aggregate.busy_s", "s"},
	{"frame.replicas", "count"},
	{"frame.busy_s", "s"},
	{"frame.ns_per_agent_round", "ns"},
	{"fleet.overhead_ms", "ms"},
	{"fleet.retries", "count"},
	{"expt.encode_us_per_record", "us"},
	{"expt.spec_hash_us", "us"},
	{"serve.normalize_us", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.mallocs_per_request", "count"},
	{"serve.bytes_per_request", "B"},
	{"store.get_us", "us"},
	{"store.commit_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"qos.predict_us", "us"},
	{"qos.abs_log_error", "ln"},
	{"qos.queue_wait_ms", "ms"},
	{"cluster.shards_per_job", "count"},
	{"cluster.shard_ms", "ms"},
	{"cluster.merge_overhead_ms", "ms"},
	{"cluster.parallel_efficiency", "ratio"},
	{"cluster.redispatches", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.replica_coverage", "ratio"},
}

// layerMetrics turns the spans of a traced pass into the per-layer table.
// A layer the workload does not exercise reports 0.
func layerMetrics(spans []span, in traceInputs) map[string]float64 {
	byName := map[string][]span{}
	children := map[int][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	meanDur := func(name string, unit float64) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.dur())/unit)
		}
		return mean(xs)
	}
	m := map[string]float64{}

	var (
		replicaNS, frameWork float64
		absLog               []float64
	)
	tierReplicas := map[string]float64{}
	tierNS := map[string]float64{}
	var denseInter float64
	for _, s := range byName["replica"] {
		tier := s.Runner
		if tier == "" {
			tier = "frame" // framework records carry no kernel name
			frameWork += s.Rounds * float64(s.N)
		}
		if tier == "dense" {
			denseInter += float64(s.Interactions)
		}
		tierReplicas[tier]++
		tierNS[tier] += float64(s.dur())
		replicaNS += float64(s.dur())
		if s.PredictedNS > 0 && s.dur() > 0 {
			absLog = append(absLog, math.Abs(math.Log(float64(s.PredictedNS)/float64(s.dur()))))
		}
	}
	for _, tier := range []string{"dense", "batch", "aggregate"} {
		m["engine."+tier+".replicas"] = tierReplicas[tier]
		m["engine."+tier+".busy_s"] = tierNS[tier] / 1e9
	}
	if denseInter > 0 {
		m["engine.dense.ns_per_interaction"] = tierNS["dense"] / denseInter
	}
	m["frame.replicas"] = tierReplicas["frame"]
	m["frame.busy_s"] = tierNS["frame"] / 1e9
	if frameWork > 0 {
		m["frame.ns_per_agent_round"] = tierNS["frame"] / frameWork
	}

	var overhead []float64
	for _, run := range byName["fleet.run"] {
		overhead = append(overhead, float64(selfTime(run, children[run.ID]))/1e6)
	}
	m["fleet.overhead_ms"] = mean(overhead)
	m["fleet.retries"] = float64(in.retries)

	m["expt.encode_us_per_record"] = meanDur("expt.encode", 1e3)
	m["expt.spec_hash_us"] = meanDur("expt.spec_hash", 1e3)
	m["serve.normalize_us"] = meanDur("serve.normalize", 1e3)
	replayByReq := map[int]span{}
	for _, s := range byName["replay"] {
		replayByReq[s.Req] = s
	}
	var httpMS, overheadUS []float64
	var httpNS, shardedNS float64
	var merge []float64
	for _, h := range byName["http.request"] {
		httpMS = append(httpMS, float64(h.dur())/1e6)
		httpNS += float64(h.dur())
		if r, ok := replayByReq[h.Req]; ok {
			overheadUS = append(overheadUS, float64(h.dur()-r.dur())/1e3)
		}
		if kids := children[h.ID]; len(kids) > 0 {
			merge = append(merge, float64(selfTime(h, kids))/1e6)
			shardedNS += float64(h.dur())
		}
	}
	m["serve.http_overhead_us"] = median(overheadUS)
	m["serve.mallocs_per_request"] = in.mallocsPerRq
	m["serve.bytes_per_request"] = in.bytesPerRq

	m["store.get_us"] = meanDur("store.get", 1e3)
	m["store.commit_ms"] = meanDur("store.commit", 1e6)
	if in.requests > 0 {
		m["store.hit_ratio"] = float64(in.cacheHits) / float64(in.requests)
	}

	m["qos.predict_us"] = meanDur("qos.predict", 1e3)
	m["qos.abs_log_error"] = mean(absLog)
	if dc := in.after.queueWaitCount - in.before.queueWaitCount; dc > 0 {
		m["qos.queue_wait_ms"] = (in.after.queueWaitMS - in.before.queueWaitMS) / float64(dc)
	}

	if shards := byName["cluster.shard"]; len(shards) > 0 && in.requests > 0 {
		m["cluster.shards_per_job"] = float64(len(shards)) / float64(in.requests)
		m["cluster.shard_ms"] = meanDur("cluster.shard", 1e6)
		m["cluster.merge_overhead_ms"] = mean(merge)
		if in.workers > 0 && shardedNS > 0 {
			m["cluster.parallel_efficiency"] = replicaNS / (float64(in.workers) * shardedNS)
		}
	}
	m["cluster.redispatches"] = float64(in.after.redispatches - in.before.redispatches)

	if len(httpMS) > 0 {
		m["trace.overhead_ms"] = median(httpMS) - in.untracedP50
	}
	if httpNS > 0 {
		m["trace.replica_coverage"] = replicaNS / httpNS
	}
	return m
}
