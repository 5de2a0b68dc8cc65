package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the contract's four keys plus
// what a human needs to judge the run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples,omitempty"`  // sample count behind a metric
	Info      map[string]float64     `json:"info,omitempty"`     // not part of the contract: failed_share, calib, ...
	Flags     []string               `json:"flags,omitempty"`    // noise warnings
	Failures  []string               `json:"failures,omitempty"` // first few failure reasons
	OpMS      []float64              `json:"op_ms,omitempty"`    // every timed op's latency, in completion order
	// LayerSelfMS is the traced op decomposed: each layer's self time per op.
	LayerSelfMS map[string]float64 `json:"layer_self_ms_per_op,omitempty"`
}

// setupReps is how many times set-up is repeated so that setup_s is a
// median: the batch set-up is cheap, the daemon ones start processes.
func setupReps(name string) int {
	if name == wBatchFattree || name == wBatchSharded {
		return 5
	}
	return 3
}

// calibrate runs a fixed spin loop five times and returns the median in
// ms; noisy is set when any repetition strays more than a tenth from
// it, which means something else is using the CPU.
func calibrate() (ms float64, noisy bool) {
	var reps []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 12_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	ms = median(reps)
	for _, r := range reps {
		if math.Abs(r-ms) > 0.1*ms {
			noisy = true
		}
	}
	return ms, noisy
}

var spinSink uint64 // keeps the spin loop from being optimised away

// setUp performs one set-up repetition.
func setUp(w workload) error {
	if err := w.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if err := w.launch(); err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	return nil
}

func newResult(name string, seed int64, seconds int, traced bool) *runResult {
	return &runResult{Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}, Info: map[string]float64{}}
}

func (r *runResult) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

func (r *runResult) absorb(m *measured) {
	r.Attempted += m.attempted
	r.Failed += m.failed
	for _, f := range m.failures {
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, f)
		}
	}
}

func (r *runResult) noteCalib(calibs *[]float64) {
	ms, noisy := calibrate()
	r.Info["bench.calib_ms"] = ms
	*calibs = append(*calibs, ms)
	if set := median(*calibs); math.Abs(ms-set) > 0.1*set {
		r.Flags = append(r.Flags, fmt.Sprintf("calib strays: %.1f ms against a set median of %.1f ms; the host is busy", ms, set))
	} else if noisy {
		r.Flags = append(r.Flags, fmt.Sprintf("calib unsteady: one of five spins strays more than a tenth from their median of %.1f ms; the host is busy", ms))
	}
	fmt.Printf("%-28s %10.3f ms\n", "bench.calib_ms", ms)
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(e *env, name string, seed int64, seconds int, calibs *[]float64) (*runResult, error) {
	res := newResult(name, seed, seconds, false)
	res.noteCalib(calibs)
	w, err := newWorkload(e, name, seed)
	if err != nil {
		return nil, err
	}
	defer w.shutdown()
	var setups []float64
	for rep, reps := 0, setupReps(name); rep < reps; rep++ {
		if rep > 0 {
			w.shutdown()
		}
		t0 := time.Now()
		if err := setUp(w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.oracle(); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	m := w.loop(time.Duration(seconds)*time.Second, nil, false)
	harnessCPU := selfCPU() - cpu0
	w.finish(&m)
	res.absorb(&m)
	ops := float64(len(m.lat))
	if ops == 0 {
		return nil, fmt.Errorf("%s: no op completed in %d s", name, seconds)
	}
	res.set(endToEnd, "setup_s", median(setups))
	res.set(endToEnd, "op_p50_ms", median(m.lat))
	res.set(endToEnd, "throughput_ops_s", ops/m.wall.Seconds())
	res.set(endToEnd, "cpu_s_op", m.cpu/ops)
	res.set(endToEnd, "peak_rss_mb", m.rssMB)
	res.set(endToEnd, "wire_kb_op", float64(m.wireBytes)/1024/ops)
	res.OpMS = m.lat
	res.Samples["setup_s"] = len(setups)
	res.Samples["op_p50_ms"] = len(m.lat)
	for name, p := range map[string]float64{"op_p90_ms": 0.90, "op_p95_ms": 0.95} {
		if v, err := percentile(m.lat, p); err == nil {
			res.Info[name] = v
		}
	}
	res.Info["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Info["bench.harness_cpu_share"] = harnessCPU / m.wall.Seconds()
	res.Info["bench.build_s"] = e.buildS
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced is the separate traced run: the layer probes on the
// workload's input, then the workload's ops — half the window untraced,
// half replayed from outside with spans — and the per-layer metrics
// derived from both.
func runTraced(e *env, name string, seed int64, seconds int, calibs *[]float64) (*runResult, error) {
	res := newResult(name, seed, seconds, true)
	res.noteCalib(calibs)
	w, err := newWorkload(e, name, seed)
	if err != nil {
		return nil, err
	}
	defer w.shutdown()
	if err := setUp(w); err != nil {
		return nil, err
	}
	if err := w.oracle(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	vals, err := probeLayers(w.input(), seed, rec)
	if err != nil {
		return nil, err
	}
	if ds := w.daemons(); len(ds) > 0 {
		t0 := time.Now()
		resp, err := http.Get(ds[0].url() + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %w", err)
		}
		vals["obs.metrics_scrape_ms"] = msSince(t0)
		vals["obs.metrics_kb"] = kb(len(body))
	}

	half := time.Duration(seconds) * time.Second / 2
	cpu0 := selfCPU()
	plain := w.loop(half, nil, true)
	traced := w.loop(half, rec, false)
	harnessCPU := selfCPU() - cpu0
	w.finish(&traced)
	res.absorb(&plain)
	res.absorb(&traced)
	if len(plain.lat) == 0 || len(traced.lat) == 0 {
		return nil, fmt.Errorf("%s: no op completed in %d s", name, seconds)
	}
	spans := rec.snapshot()
	deriveReplay(vals, spans, &plain, &traced)
	if fw, ok := w.(*fleetWL); ok {
		if err := fw.deriveFleet(vals, spans); err != nil {
			return nil, err
		}
	}
	attempts, shed := w.httpStats()
	if attempts > 0 {
		vals["service.shed_share"] = float64(shed) / float64(attempts)
	}
	vals["bench.calib_ms"] = res.Info["bench.calib_ms"]
	vals["bench.harness_cpu_share"] = harnessCPU / (plain.wall + traced.wall).Seconds()
	vals["bench.build_s"] = e.buildS
	for _, s := range perLayer {
		res.set(perLayer, s.Name, vals[s.Name]) // absent = 0: the workload does not enter the layer
	}
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			panic("bench: probe emitted " + k + ", which is not in the catalogue")
		}
	}
	res.Samples["ops_untraced"] = len(plain.lat)
	res.Samples["ops_traced"] = len(traced.lat)
	res.Samples["spans"] = len(spans)
	res.Info["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0

	out := filepath.Join(e.benchDir, "out", "trace-"+name+".json")
	res.LayerSelfMS = layerSelfMS(spans)
	data, err := json.Marshal(struct {
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		LayerSelfMS map[string]float64 `json:"layer_self_ms_per_op"`
		Spans       []span             `json:"spans"`
	}{name, seed, res.LayerSelfMS, spans})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// sharePriority decides which group an instant belongs to when spans of
// several groups cover it: the deepest work wins, so time a client
// spends waiting while the daemon evaluates counts as evaluation, and
// serving or wire get what nothing below them explains.
var sharePriority = []string{"evaluation", "metrics", "churn", "replication", "serving", "wire"}

// opTree is one op's root span with everything beneath it.
type opTree struct {
	root span
	desc []span
}

func opTrees(spans []span) []opTree {
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) int {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.ID
	}
	trees := map[int]*opTree{}
	var order []int
	for _, s := range spans {
		if s.Parent == 0 && s.End >= 0 && (strings.HasPrefix(s.Name, "op.") || s.Name == "coord.run") {
			trees[s.ID] = &opTree{root: s}
			order = append(order, s.ID)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 || s.End < 0 {
			continue
		}
		if t := trees[rootOf(s)]; t != nil {
			t.desc = append(t.desc, s)
		}
	}
	out := make([]opTree, 0, len(order))
	for _, id := range order {
		out = append(out, *trees[id])
	}
	return out
}

// layerSelfMS sums each layer's self time over the traced ops and
// divides by their number: the named costs one op decomposes into. The
// op's root span is reported as "(op)": time no layer span covers.
// Spans reconstructed from a job's own stamps (jobs.run, jobs.queue_wait)
// overlap the client-side waits beside them, so on the daemon workloads
// the layers can add up to more than the op.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	trees := opTrees(spans)
	for _, t := range trees {
		out["(op)"] += float64(self[t.root.ID]) / 1e6
		for _, s := range t.desc {
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer] += float64(self[s.ID]) / 1e6
		}
	}
	for k := range out {
		out[k] /= float64(len(trees))
	}
	return out
}

// deriveReplay turns the replay's spans into the per-layer metrics that
// come from the workload's own ops.
func deriveReplay(vals map[string]float64, spans []span, plain, traced *measured) {
	byName := map[string][]float64{}
	for _, s := range spans {
		if s.End >= 0 {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	for metric, spanName := range map[string]string{
		"service.post_jobs_ms":            "service.post_jobs",
		"service.get_job_ms":              "service.get_job",
		"service.get_coverage_ms":         "service.get_coverage",
		"service.get_job_trace_ms":        "coord.fragment_fetch",
		"service.patch_network_ms":        "service.patch_network",
		"service.put_network_ms":          "coord.load_network",
		"service.coverage_under_churn_ms": "service.coverage_read",
		"jobs.queue_wait_ms":              "jobs.queue_wait",
		"jobs.run_ms":                     "jobs.run",
		"coord.fragment_fetch_ms":         "coord.fragment_fetch",
	} {
		vals[metric] = median(byName[spanName])
	}
	if n := len(byName["service.post_jobs"]); n > 0 {
		vals["jobs.polls_op"] = float64(len(byName["service.get_job"])) / float64(n)
	}

	// Shares of the op and the sum of its layers.
	var opTotal int64
	group := map[string]int64{}
	var layerSums []float64
	for _, t := range opTrees(spans) {
		lo, hi := t.root.Start, t.root.End
		opTotal += hi - lo
		var all []interval
		for _, s := range t.desc {
			all = append(all, interval{s.Start, s.End})
		}
		layerSums = append(layerSums, float64(covered(all, lo, hi))/1e6)
		var claimed []interval
		var before int64
		for _, g := range sharePriority {
			for _, s := range append(t.desc, t.root) {
				if shareGroup(s.Name) == g {
					claimed = append(claimed, interval{s.Start, s.End})
				}
			}
			now := covered(claimed, lo, hi)
			group[g] += now - before
			before = now
		}
	}
	if opTotal > 0 {
		for _, g := range shareOrder {
			vals["share."+g] = float64(group[g]) / float64(opTotal)
		}
	}
	p50 := median(plain.lat)
	vals["bench.layer_sum_ratio"] = median(layerSums) / p50
	vals["bench.trace_overhead_ratio"] = median(traced.lat) / p50
	if len(plain.profiled) > 0 {
		vals["obs.profile_overhead_ratio"] = median(plain.profiled) / p50
	}
	// The tail is the 90th percentile: a 12 s window gives the daemon
	// workloads 100 to 250 ops, not reliably the 200 a 95th needs. Both
	// halves count; on the workloads that reach 100 ops the replay adds
	// only client-side spans (trace_overhead_ratio says how little).
	if p90, err := percentile(append(append([]float64(nil), plain.lat...), traced.lat...), 0.90); err == nil {
		vals["service.op_p90_ms"] = p90
	}
}

// deriveFleet adds what only the coordinator's tracing transport saw.
func (w *fleetWL) deriveFleet(vals map[string]float64, spans []span) error {
	var runs, shardAll, shardMax, loadPerRun, fragKB []float64
	var attempts, retryable int
	var frags [][]byte
	for _, t := range opTrees(spans) {
		runs = append(runs, float64(t.root.End-t.root.Start)/1e6)
		var loads []interval
		for _, s := range t.desc {
			if s.Name == "coord.load_network" {
				loads = append(loads, interval{s.Start, s.End})
			}
		}
		loadPerRun = append(loadPerRun, float64(covered(loads, t.root.Start, t.root.End))/1e6)
	}
	for _, c := range w.captures {
		attempts += c.attempts
		retryable += c.retryable
		var worst float64
		for _, s := range c.shards {
			d := float64(s.end.Sub(s.start).Nanoseconds()) / 1e6
			shardAll = append(shardAll, d)
			worst = max(worst, d)
		}
		shardMax = append(shardMax, worst)
		for _, f := range c.fragments {
			fragKB = append(fragKB, kb(len(f)))
			frags = append(frags, f)
		}
	}
	vals["coord.run_ms"] = median(runs)
	vals["coord.shard_p50_ms"] = median(shardAll)
	vals["coord.shard_max_ms"] = median(shardMax)
	vals["coord.load_network_ms"] = median(loadPerRun)
	if len(fragKB) > 0 {
		var sum float64
		for _, k := range fragKB {
			sum += k
		}
		vals["coord.fragment_kb"] = sum / float64(len(fragKB))
	}
	if attempts > 0 {
		vals["client.retry_share"] = float64(retryable) / float64(attempts)
	}
	if w.dispatched > 0 {
		vals["coord.redispatch_share"] = float64(w.dispatched-w.succeeded) / float64(w.dispatched)
	}

	// Decode and merge are inside the coordinator's Run; time the same
	// public calls on the captured fragments of one run.
	n, err := netmodel.DecodeJSON(bytes.NewReader(w.in.json))
	if err != nil {
		return err
	}
	acc := core.NewTrace()
	var decodes, merges []float64
	for _, f := range frags[:min(len(frags), len(allSuites)*coordRounds)] {
		t0 := time.Now()
		tr, err := core.DecodeTraceJSON(n, bytes.NewReader(f))
		if err != nil {
			return fmt.Errorf("decode captured fragment: %w", err)
		}
		decodes = append(decodes, msSince(t0))
		t0 = time.Now()
		acc.Merge(tr)
		merges = append(merges, msSince(t0))
	}
	vals["coord.fragment_decode_ms"] = median(decodes)
	vals["coord.fragment_merge_ms"] = median(merges)
	return nil
}

// printResult writes the human-readable table: every metric by name
// with its unit and, where there is one, the sample count.
func printResult(r *runResult) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("\n== %s  seed %d  %d s  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Metrics[k]
		n := ""
		if c, ok := r.Samples[k]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Printf("%-34s %14.4f %-6s%s\n", k, v.Value, v.Unit, n)
	}
	info := make([]string, 0, len(r.Info))
	for k := range r.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Printf("%-34s %14.4f\n", k, r.Info[k])
	}
	for _, k := range []string{"ops_untraced", "ops_traced", "spans"} {
		if c, ok := r.Samples[k]; ok {
			fmt.Printf("%-34s %14d\n", k, c)
		}
	}
	fmt.Printf("%-34s %d attempted, %d failed\n", "ops", r.Attempted, r.Failed)
	for _, f := range r.Flags {
		fmt.Println("FLAG:", f)
	}
	for _, f := range r.Failures {
		fmt.Println("FAILED:", f)
	}
	if r.Traced {
		printShares(r)
	}
}

// printShares prints the decomposition of one traced op: each layer's
// self time, then the layer-share table.
func printShares(r *runResult) {
	layers := make([]string, 0, len(r.LayerSelfMS))
	for l := range r.LayerSelfMS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("layer self time per traced %s op (ms):", r.Workload)
	for _, l := range layers {
		fmt.Printf("  %s %.1f", l, r.LayerSelfMS[l])
	}
	fmt.Println()
	fmt.Printf("layer shares of one %s op:", r.Workload)
	for _, g := range shareOrder {
		fmt.Printf("  %s %.0f%%", g, 100*r.Metrics["share."+g].Value)
	}
	fmt.Println()
}

// contractLine is the last line of standard output: exactly the keys
// the driver reads.
func contractLine(r *runResult) string {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to encode
	}
	return string(line)
}
