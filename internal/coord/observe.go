// Coordinator observability: native metrics, the fleet federation
// loop, and the coordinator's own HTTP surface.
//
// The coordinator is the one process that can see a distributed run
// whole, so it exposes two views at once from a single /metrics:
//
//   - Native series (yardstick_coord_*): dispatch outcomes per node,
//     re-dispatches, waits for a node, breaker states, shard latency by
//     shard suite, fragment bytes by encoding, network pushes made and
//     skipped, federation health. These live in a normal obs.Registry.
//
//   - Federated series: each worker's full metric snapshot, scraped
//     from its /stats (whose Metrics field carries exactly what the
//     worker's own /metrics exposes, job gauges freshly flushed),
//     re-labelled under node="<base-url>". These live in an
//     obs.Federation — per-node snapshots replaced wholesale per
//     scrape, aged out when a node stops answering — because federated
//     counters are re-exported readings that may legally reset, which
//     a Registry's monotonic counters cannot represent.
//
// The two views merge only at exposition time (FleetMetrics), where
// type conflicts and duplicate series are dropped and counted rather
// than double-reported. The native families all carry the
// yardstick_coord_ prefix, so in practice nothing collides with the
// workers' yardstick_* families.
package coord

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"yardstick/internal/obs"
)

// Coordinator-native metric names.
const (
	// MetricDispatch counts dispatch attempts by node and outcome
	// (success, failure, shed, neutral — neutral is an attempt the run's
	// cancellation cut short, which says nothing about the node).
	MetricDispatch = "yardstick_coord_dispatch_total"
	// MetricRedispatch counts shard attempts beyond each shard's first.
	MetricRedispatch = "yardstick_coord_redispatch_total"
	// MetricNodeWaits counts the 10 ms waits shards made for want of a
	// claimable node: times 10 ms, how long work idled for capacity.
	MetricNodeWaits = "yardstick_coord_node_waits_total"
	// MetricBreakerState gauges each node's breaker: 0 closed, 1
	// half-open, 2 open.
	MetricBreakerState = "yardstick_coord_breaker_state"
	// MetricShardDuration is the completed-shard latency histogram, by
	// the shard's suite (one name, or the split group's names joined by
	// commas): dispatch to collected fragment, queue and retries
	// included.
	MetricShardDuration = "yardstick_coord_shard_duration_seconds"
	// MetricFragmentBytes counts shard-fragment bytes fetched off the
	// wire, by encoding ("arena" or "json").
	MetricFragmentBytes = "yardstick_coord_fragment_bytes_total"
	// MetricNetworkPush counts per-node network checks by outcome:
	// "pushed" (PUT /network was needed) or "skipped" (the node already
	// held the run's network).
	MetricNetworkPush = "yardstick_coord_network_push_total"
	// MetricProfileFetchFailures counts worker span profiles that could
	// not be fetched (best-effort; the shard still completes).
	MetricProfileFetchFailures = "yardstick_coord_profile_fetch_failures_total"
	// MetricProfileDecodeFailures counts fetched profiles rejected as
	// malformed by the obs codec.
	MetricProfileDecodeFailures = "yardstick_coord_profile_decode_failures_total"
	// MetricScrapes counts federation scrapes by node and outcome.
	MetricScrapes = "yardstick_coord_scrape_total"
	// MetricFederatedSeries gauges how many federated series the last
	// FleetMetrics exposition carried.
	MetricFederatedSeries = "yardstick_coord_federated_series"
	// MetricMergeDropped gauges series dropped from the last exposition
	// for type conflicts or duplication — nonzero means two sources
	// disagree and one was silenced rather than double-counted.
	MetricMergeDropped = "yardstick_coord_merge_dropped_series"
)

func registerCoordHelp(r *obs.Registry) {
	r.SetHelp(MetricDispatch, "Shard dispatch attempts, by node and outcome")
	r.SetHelp(MetricRedispatch, "Shard attempts beyond the first")
	r.SetHelp(MetricNodeWaits, "Shard waits of 10 ms for a claimable node")
	r.SetHelp(MetricBreakerState, "Per-node breaker state: 0 closed, 1 half-open, 2 open")
	r.SetHelp(MetricShardDuration, "Completed shard latency, by shard suite (one name, or the split group joined by commas)")
	r.SetHelp(MetricFragmentBytes, "Shard fragment bytes fetched from workers, by encoding")
	r.SetHelp(MetricNetworkPush, "Per-node network checks before dispatch, by outcome (pushed or skipped)")
	r.SetHelp(MetricProfileFetchFailures, "Worker span profiles that could not be fetched")
	r.SetHelp(MetricProfileDecodeFailures, "Worker span profiles rejected as malformed")
	r.SetHelp(MetricScrapes, "Federation scrapes, by node and outcome")
	r.SetHelp(MetricFederatedSeries, "Federated series in the last fleet exposition")
	r.SetHelp(MetricMergeDropped, "Series dropped from the last fleet exposition (type conflict or duplicate)")
}

// newRunID mints a 16-hex-char run ID (the same shape as request and
// job IDs). Randomness failures degrade to a timestamp-derived ID.
func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Metrics exposes the coordinator's native metric registry.
func (co *Coordinator) Metrics() *obs.Registry { return co.metrics }

// flushBreakerGauges refreshes the per-node breaker state gauges;
// called at exposition time so a scrape always reflects current state.
func (co *Coordinator) flushBreakerGauges() {
	for _, n := range co.nodes {
		v := 0.0
		switch n.stateNow() {
		case stHalfOpen:
			v = 1
		case stOpen:
			v = 2
		}
		co.metrics.Gauge(MetricBreakerState, "node", n.base).Set(v)
	}
}

// scrapeNode pulls one worker's /stats and ingests its metric snapshot
// into the federation under the node's base URL, stamped when the answer
// arrived. A worker that does not answer, or whose snapshot does not
// decode (an older worker's string-encoded labels), leaves its previous
// snapshot in place to age out — failure here is recorded, never fatal.
func (co *Coordinator) scrapeNode(ctx context.Context, n *node) error {
	st, err := n.c.Stats(ctx)
	if err != nil {
		co.metrics.Counter(MetricScrapes, "node", n.base, "outcome", "failure").Inc()
		return err
	}
	co.fed.Ingest(n.base, st.Metrics, time.Now())
	co.metrics.Counter(MetricScrapes, "node", n.base, "outcome", "success").Inc()
	return nil
}

// ScrapeFleet runs one federation sweep over every node. The client sets
// no deadline of its own, so give ctx one: it bounds each node's scrape.
// Nodes are scraped concurrently, so a black-holed worker costs the sweep
// at most that deadline and cannot hold back a healthy node's snapshot.
// Failures are per-node: a dead worker costs one log line, not the sweep.
func (co *Coordinator) ScrapeFleet(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	var wg sync.WaitGroup
	for _, n := range co.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := co.scrapeNode(ctx, n); err != nil {
				co.cfg.Logger.Info("coord: scrape failed", "node", n.base, "err", err)
			}
		}()
	}
	wg.Wait()
}

// Federate runs the scrape loop every interval until ctx is done — the
// coordinator's pull-based metric federation. Each sweep is bounded by
// the interval. Pair it with a metrics listener serving
// WriteFleetMetrics. interval <= 0 means 2s.
func (co *Coordinator) Federate(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		sctx, cancel := context.WithTimeout(ctx, interval)
		co.ScrapeFleet(sctx)
		cancel()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// FleetMetrics returns the merged fleet view: the coordinator's native
// series plus every fresh federated node snapshot, sorted and
// de-duplicated. The federation-health gauges describe the very
// exposition being built, so they are computed in two passes: merge
// once to count, set the gauges, snapshot again.
func (co *Coordinator) FleetMetrics() []obs.Metric {
	co.flushBreakerGauges()
	now := time.Now()
	fed := co.fed.Snapshot(now)
	_, dropped := obs.MergeMetrics(co.metrics.Snapshot(), fed)
	co.metrics.Gauge(MetricFederatedSeries).Set(float64(len(fed)))
	co.metrics.Gauge(MetricMergeDropped).Set(float64(dropped))
	merged, _ := obs.MergeMetrics(co.metrics.Snapshot(), fed)
	return merged
}

// WriteFleetMetrics writes the merged fleet view in the Prometheus text
// exposition format — what the coordinator's -metrics-addr /metrics
// serves.
func (co *Coordinator) WriteFleetMetrics(w io.Writer) error {
	return obs.WritePrometheusMetrics(w, co.metrics.Help(), co.FleetMetrics())
}

// FederatedNodes returns the nodes with a fresh snapshot in the fleet
// view — the staleness-filtered federation membership.
func (co *Coordinator) FederatedNodes() []string {
	return co.fed.Nodes(time.Now())
}

// CoordStats is the coordinator's GET /stats body: per-node breaker
// accounting plus federation membership. Metric series are served by
// /metrics alone.
type CoordStats struct {
	Nodes []NodeReport `json:"nodes"`
	// Federated lists the worker nodes whose metrics are currently
	// (non-stale) part of the fleet view.
	Federated []string `json:"federated"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Handler returns the coordinator's own observability surface — what
// cmd/yardstick-coord mounts on -metrics-addr:
//
//	GET /metrics  merged native + federated exposition
//	GET /stats    JSON: node reports, federation membership
//	GET /healthz  liveness
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		co.WriteFleetMetrics(w)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, CoordStats{
			Nodes:     co.NodeReports(),
			Federated: co.FederatedNodes(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}
