package main

import "strings"

// This file is the benchmark's vocabulary: every workload and every
// metric the harness can emit, with unit, direction and (for end-to-end
// metrics) the regression bound. BENCHMARK.json at the repository root
// carries the same names; spec_test.go fails when the two drift apart.

// workloadSpec describes one workload. Why is the one-line rationale
// BENCHMARK.json records; Op says what one operation is.
type workloadSpec struct {
	Name string
	Why  string
	Op   string
}

const (
	wBatchFattree = "batch_fattree"
	wBatchSharded = "batch_sharded"
	wServiceMix   = "service_mix"
	wChurnPatch   = "churn_patch"
	wFleetCoord   = "fleet_coord"
)

var workloads = []workloadSpec{
	{wBatchFattree,
		"cold CLI, 7 suites on a k=10 fat-tree, 1 worker: bdd+hdr+dataplane+testkit dominate, no service/coord/codec; a kernel gain shows here only",
		"one cold `yardstick -net fattree-k10.json -suite default,connected,internal,agg,contract,reach,pingmesh -workers 1` process, start to exit; 1 client"},
	{wBatchSharded,
		"same input with -workers 2: adds sharded, network/BDD clones and transfer merge; p50 over batch_fattree is the parallel speed-up, cpu_s_op its cost",
		"same process with `-workers 2`; 1 client"},
	{wServiceMix,
		"2 closed-loop clients on a warm daemon (regional Clos + 5-tuple ACLs): POST /jobs, poll, GET /coverage; service mutex, job queue and core metrics",
		"POST /jobs with 1-3 seeded suite names, poll GET /jobs/{id} every 10 ms to terminal, GET /coverage; 2 clients"},
	{wChurnPatch,
		"PATCH /network flap deltas while a second client reads /coverage: incremental netmodel/bdd/core path with reads beside writes on one lock",
		"one PATCH /network delta document from a seeded bgp.GenFlaps replay; client 2 loops GET /coverage"},
	{wFleetCoord,
		"yardstick-coord process against 2 warm workers: dispatch, client, PUT /network, fragment fetch, decode and merge dominate; kernel gains should not show",
		"one `yardstick-coord -nodes w1,w2 -net regional-m.json -suite <8 suites> -rounds 2 -concurrency 2 -poll 10ms` process; 1 client"},
}

// metricSpec describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which carry no bound). Moves names the end-to-end metric and
// workload a per-layer metric is expected to move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Def    string
	Moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25, "median of the set-up repetitions: input generation, program start, network load, warm-up; excludes go build and the oracle", ""},
	{"op_p50_ms", "ms", lower, 0.25, "median op latency", ""},
	{"throughput_ops_s", "ops/s", higher, 0.25, "timed ops / wall time from first op start to last op end", ""},
	{"cpu_s_op", "s", lower, 0.25, "user+sys CPU of every program-under-test process over the timed window / ops", ""},
	{"peak_rss_mb", "MB", lower, 0.20, "largest VmHWM / Maxrss over those processes", ""},
	{"wire_kb_op", "KB", lower, 0.15, "bytes crossing the program boundary / ops: forwarder payload both ways for daemons, input file + stdout for the CLI", ""},
}

// Per-layer metrics. A value of 0 on a workload means the workload does
// not enter that layer (or the input family has nothing to feed it).
var perLayer = []metricSpec{
	// inputs
	{"topogen.build_ms", "ms", lower, 0, "BuildFatTree / BuildRegional of the workload's network", "setup_s @ all"},
	{"bgp.run_ms", "ms", lower, 0, "bgp.Run on the regional's Origins/Statics/Export (0 on the fat-tree: no control plane)", "setup_s @ service_mix, churn_patch, fleet_coord"},
	// netmodel
	{"netmodel.matchsets_ms", "ms", lower, 0, "ComputeMatchSets on an unfrozen copy", "op_p50_ms @ batch_fattree"},
	{"netmodel.clone_ms", "ms", lower, 0, "Network.Clone", "op_p50_ms @ batch_sharded"},
	{"netmodel.json_encode_ms", "ms", lower, 0, "Network.EncodeJSON", "op_p50_ms @ fleet_coord"},
	{"netmodel.json_decode_ms", "ms", lower, 0, "netmodel.DecodeJSON (parse + match sets)", "op_p50_ms @ batch_fattree, fleet_coord"},
	{"netmodel.json_kb", "KB", lower, 0, "size of the encoded network", "wire_kb_op @ fleet_coord, batch_*"},
	// bdd
	{"bdd.and_ns", "ns", lower, 0, "Manager.And over pairs of rule match sets, per call", "op_p50_ms, cpu_s_op @ batch_fattree"},
	{"bdd.or_ns", "ns", lower, 0, "Manager.Or over the same pairs", "op_p50_ms, cpu_s_op @ batch_fattree"},
	{"bdd.diff_ns", "ns", lower, 0, "Manager.Diff over the same pairs", "op_p50_ms, cpu_s_op @ batch_fattree"},
	{"bdd.satcount_ns", "ns", lower, 0, "Manager.SatCount of each rule match set", "op_p50_ms @ service_mix (GET /coverage)"},
	{"bdd.ops_op", "count", lower, 0, "apply-loop steps charged by one cold full-suite evaluation", "cpu_s_op @ batch_fattree"},
	{"bdd.cache_hit_ratio", "ratio", higher, 0, "op-cache hits / consultations over that evaluation", "op_p50_ms @ batch_fattree"},
	{"bdd.nodes_peak", "count", lower, 0, "peak node count after that evaluation", "peak_rss_mb @ batch_*"},
	{"bdd.unique_load", "ratio", lower, 0, "unique-table load factor after that evaluation", "peak_rss_mb @ batch_*"},
	{"bdd.resizes", "count", lower, 0, "unique+cache table doublings during that evaluation", "op_p50_ms @ batch_fattree"},
	{"bdd.clone_ms", "ms", lower, 0, "Manager.Clone of the evaluated manager", "op_p50_ms @ batch_sharded"},
	{"bdd.arena_encode_ms", "ms", lower, 0, "Manager.WriteArena", "none yet (arena is not on the wire)"},
	{"bdd.arena_decode_ms", "ms", lower, 0, "bdd.DecodeArena", "none yet"},
	{"bdd.arena_kb", "KB", lower, 0, "arena size", "none yet"},
	// hdr
	{"hdr.dstprefix_ns", "ns", lower, 0, "Space.DstPrefix per rule prefix in a fresh space", "op_p50_ms @ batch_fattree"},
	{"hdr.from_prefixes_us", "us", lower, 0, "Space.FromDstPrefixes per batch of 64 prefixes", "op_p50_ms @ batch_fattree"},
	{"hdr.transfer_shared_ms", "ms", lower, 0, "full trace moved into a clone of its own space", "op_p50_ms @ batch_sharded"},
	{"hdr.transfer_fresh_ms", "ms", lower, 0, "full trace moved into a fresh space", "op_p50_ms @ fleet_coord"},
	// dataplane
	{"dataplane.traceroute_us", "us", lower, 0, "Traceroute between seeded ToR pairs, per packet", "op_p50_ms @ batch_fattree, service_mix"},
	{"dataplane.reach_ms", "ms", lower, 0, "Reach of the full header space from one seeded ToR", "op_p50_ms @ batch_fattree, service_mix"},
	{"dataplane.enum_paths_ms", "ms", lower, 0, "EnumeratePaths from EdgeStarts, 20 k path budget", "op_p50_ms @ batch_fattree"},
	// testkit
	{"testkit.default_ms", "ms", lower, 0, "DefaultRouteCheck.Run with core.Trace, cold space", "op_p50_ms @ batch_*"},
	{"testkit.connected_ms", "ms", lower, 0, "ConnectedRouteCheck.Run", "op_p50_ms @ batch_*"},
	{"testkit.internal_ms", "ms", lower, 0, "InternalRouteCheck.Run", "op_p50_ms @ batch_*"},
	{"testkit.agg_ms", "ms", lower, 0, "AggCanReachTorLoopback.Run", "op_p50_ms @ batch_*"},
	{"testkit.contract_ms", "ms", lower, 0, "ToRContract.Run", "op_p50_ms @ batch_*"},
	{"testkit.reach_ms", "ms", lower, 0, "ToRReachability.Run", "op_p50_ms @ batch_*; tail @ service_mix"},
	{"testkit.pingmesh_ms", "ms", lower, 0, "ToRPingmesh.Run", "op_p50_ms @ batch_*; tail @ service_mix"},
	{"testkit.host_ms", "ms", lower, 0, "HostInterfaceCheck.Run", "op_p50_ms @ service_mix"},
	{"testkit.tracking_overhead_ratio", "ratio", lower, 0, "suite time with core.Trace / with core.Nop, both cold (paper Figure 8)", "op_p50_ms @ batch_*"},
	// core
	{"core.metric_device_ms", "ms", lower, 0, "DeviceCoverage on the full-suite trace (paper Figure 9)", "op_p50_ms @ service_mix, churn_patch reader"},
	{"core.metric_iface_ms", "ms", lower, 0, "InterfaceCoverage", "op_p50_ms @ service_mix"},
	{"core.metric_rule_ms", "ms", lower, 0, "RuleCoverage, fractional + weighted", "op_p50_ms @ service_mix"},
	{"core.metric_path_ms", "ms", lower, 0, "PathCoverage, 20 k path budget", "none (no workload asks for paths)"},
	{"core.trace_merge_ms", "ms", lower, 0, "Trace.Merge of the full trace into an empty one", "op_p50_ms @ fleet_coord"},
	{"core.tracejson_encode_ms", "ms", lower, 0, "Trace.EncodeJSON", "op_p50_ms @ fleet_coord"},
	{"core.tracejson_decode_ms", "ms", lower, 0, "core.DecodeTraceJSON", "op_p50_ms @ fleet_coord"},
	{"core.tracejson_kb", "KB", lower, 0, "size of the cube-JSON trace", "wire_kb_op @ fleet_coord"},
	{"core.arena_encode_ms", "ms", lower, 0, "core.EncodeSnapshotArena", "none yet"},
	{"core.arena_decode_ms", "ms", lower, 0, "core.DecodeSnapshotArena", "none yet"},
	{"core.arena_kb", "KB", lower, 0, "size of the arena snapshot", "none yet"},
	// sharded
	{"sharded.build_replicas_ms", "ms", lower, 0, "sharded.New with 2 workers", "op_p50_ms, cpu_s_op @ batch_sharded"},
	{"sharded.run_ms", "ms", lower, 0, "Engine.Run of the full suite", "op_p50_ms @ batch_sharded"},
	{"sharded.merge_ms", "ms", lower, 0, "TransferTo + Merge of two replica-recorded half-suite traces into the canonical space", "op_p50_ms @ batch_sharded"},
	{"sharded.imbalance_ratio", "ratio", lower, 0, "largest shard's BDD ops / mean shard's", "op_p50_ms @ batch_sharded"},
	{"sharded.speedup_ratio", "ratio", higher, 0, "cold sequential Suite.Run / sharded.run_ms", "op_p50_ms @ batch_sharded"},
	// delta
	{"delta.diff_ms", "ms", lower, 0, "delta.Diff per flap event", "setup_s @ churn_patch"},
	{"delta.apply_ms", "ms", lower, 0, "Engine.Apply per flap event", "op_p50_ms @ churn_patch"},
	{"delta.rebuild_ms", "ms", lower, 0, "from-scratch decode + full suite re-run of the same network", "none (the alternative to delta)"},
	{"delta.ops_event", "count", lower, 0, "rule-level ops per flap event", "wire_kb_op @ churn_patch"},
	{"delta.speedup_ratio", "ratio", higher, 0, "delta.rebuild_ms / delta.apply_ms", "op_p50_ms @ churn_patch"},
	// service
	{"service.post_jobs_ms", "ms", lower, 0, "client-side span around POST /jobs", "op_p50_ms @ service_mix"},
	{"service.get_job_ms", "ms", lower, 0, "GET /jobs/{id}", "op_p50_ms @ service_mix"},
	{"service.get_coverage_ms", "ms", lower, 0, "GET /coverage", "op_p50_ms, throughput_ops_s @ service_mix"},
	{"service.get_job_trace_ms", "ms", lower, 0, "GET /jobs/{id}/trace", "op_p50_ms @ fleet_coord"},
	{"service.patch_network_ms", "ms", lower, 0, "PATCH /network", "op_p50_ms @ churn_patch"},
	{"service.put_network_ms", "ms", lower, 0, "PUT /network", "op_p50_ms @ fleet_coord"},
	{"service.coverage_under_churn_ms", "ms", lower, 0, "GET /coverage by the reader while deltas apply", "throughput_ops_s @ churn_patch"},
	{"service.shed_share", "ratio", lower, 0, "429/503 responses / HTTP attempts", "throughput_ops_s @ service_mix"},
	{"service.op_p90_ms", "ms", lower, 0, "90th percentile op latency over both halves of the traced run; 0 when fewer than 100 ops (10 samples beyond it)", "tail @ service_mix, churn_patch"},
	// jobs
	{"jobs.queue_wait_ms", "ms", lower, 0, "Started - Submitted from GET /jobs/{id}", "throughput_ops_s @ service_mix"},
	{"jobs.run_ms", "ms", lower, 0, "Finished - Started", "op_p50_ms @ service_mix, fleet_coord"},
	{"jobs.polls_op", "count", lower, 0, "GET /jobs/{id} calls per job", "wire_kb_op @ service_mix"},
	// client
	{"client.retry_share", "ratio", lower, 0, "HTTP attempts answered by an error or a retryable status / attempts through client.Client", "op_p50_ms @ fleet_coord"},
	// coord
	{"coord.run_ms", "ms", lower, 0, "in-process coord.Run, same flags as the binary", "op_p50_ms @ fleet_coord"},
	{"coord.shard_p50_ms", "ms", lower, 0, "median shard: POST /jobs to fragment received", "op_p50_ms @ fleet_coord"},
	{"coord.shard_max_ms", "ms", lower, 0, "slowest shard of a run", "op_p50_ms @ fleet_coord"},
	{"coord.load_network_ms", "ms", lower, 0, "time covered by PUT /network exchanges per run", "op_p50_ms @ fleet_coord"},
	{"coord.fragment_fetch_ms", "ms", lower, 0, "GET /jobs/{id}/trace per fragment", "op_p50_ms @ fleet_coord"},
	{"coord.fragment_decode_ms", "ms", lower, 0, "core.DecodeTraceJSON per captured fragment", "op_p50_ms @ fleet_coord"},
	{"coord.fragment_merge_ms", "ms", lower, 0, "Trace.Merge per decoded fragment", "op_p50_ms @ fleet_coord"},
	{"coord.fragment_kb", "KB", lower, 0, "mean fragment body", "wire_kb_op @ fleet_coord"},
	{"coord.redispatch_share", "ratio", lower, 0, "dispatches beyond the succeeded ones / dispatches", "op_p50_ms @ fleet_coord"},
	// obs
	{"obs.profile_overhead_ratio", "ratio", lower, 0, "CLI op with -profile / without (batch workloads)", "op_p50_ms @ batch_*"},
	{"obs.span_ns", "ns", lower, 0, "obs.Span Child+End pair", "op_p50_ms @ all"},
	{"obs.metrics_scrape_ms", "ms", lower, 0, "GET /metrics on a worker", "none"},
	{"obs.metrics_kb", "KB", lower, 0, "size of that exposition", "none"},
	// shares of one op, from the traced replay
	{"share.evaluation", "ratio", lower, 0, "share of the op under bdd+hdr+dataplane+testkit spans", "-"},
	{"share.metrics", "ratio", lower, 0, "share under core.metric spans", "-"},
	{"share.replication", "ratio", lower, 0, "share under sharded/clone/transfer spans", "-"},
	{"share.wire", "ratio", lower, 0, "share under codec, client and coord spans", "-"},
	{"share.serving", "ratio", lower, 0, "share under service and jobs spans", "-"},
	{"share.churn", "ratio", lower, 0, "share under delta spans", "-"},
	// the harness itself
	{"bench.layer_sum_ratio", "ratio", lower, 0, "sum of layer self times of the traced op / untraced op_p50_ms", "validity"},
	{"bench.trace_overhead_ratio", "ratio", lower, 0, "traced op p50 / untraced op p50", "validity"},
	{"bench.calib_ms", "ms", lower, 0, "fixed spin loop before the workload", "validity"},
	{"bench.harness_cpu_share", "ratio", lower, 0, "harness CPU seconds / timed window", "validity"},
	{"bench.build_s", "s", lower, 0, "go build of the three binaries", "validity"},
}

// shareGroup maps a span name to its row of the layer-share table:
// evaluation = bdd+hdr+dataplane+testkit (and the worker-side job run,
// which is nothing else), metrics = core.metric_*, replication =
// sharded+clones+transfer, wire = codecs+client+coord, serving =
// service+jobs, churn = delta. "" means the span belongs to no group
// (process start, rendering, the op span itself).
func shareGroup(span string) string {
	switch span {
	case "jobs.run", "sharded.run":
		return "evaluation" // worker-side job run and parallel suite run are evaluation and nothing else
	case "service.patch_network":
		return "churn" // the exchange is the delta application and nothing else
	case "netmodel.clone", "bdd.clone", "hdr.transfer":
		return "replication"
	case "netmodel.json_decode", "netmodel.json_encode":
		return "wire"
	}
	layer, rest, _ := strings.Cut(span, ".")
	switch layer {
	case "bdd", "hdr", "dataplane", "testkit":
		return "evaluation"
	case "core":
		if strings.HasPrefix(rest, "metric") {
			return "metrics"
		}
		return "wire" // trace codecs and merge of fetched fragments
	case "sharded":
		return "replication"
	case "client", "coord":
		return "wire"
	case "service", "jobs":
		return "serving"
	case "delta":
		return "churn"
	}
	return ""
}

var shareOrder = []string{"evaluation", "metrics", "replication", "wire", "serving", "churn"}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
