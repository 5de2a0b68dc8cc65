// Command yardstick-coord runs a test suite across a fleet of
// yardstickd workers and merges their coverage into one exact trace —
// the multi-node front end of the coverage service:
//
//	yardstickd -listen :8081 &
//	yardstickd -listen :8082 &
//	yardstickd -listen :8083 &
//	yardstick-coord -nodes http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	    -topology regional -suite default,internal,contract
//
// The coordinator pushes its network to every node that does not
// already hold it, partitions the suite into shards, dispatches them
// through the async /jobs API, and merges the per-shard trace fragments
// (GET /jobs/{id}/trace, as checksummed arenas) as they arrive by exact
// BDD union — so the cluster result is bit-identical to a single-node
// sequential run, no matter how shards were scheduled, retried, or
// duplicated. Failed nodes trip a circuit breaker and their work is
// re-dispatched; a straggling shard's attempt ends at -shard-timeout
// and is re-dispatched too; when no healthy node remains the run
// degrades into an explicit partial result instead of hanging.
//
// Exit codes mirror the yardstick CLI: 0 all tests passed and the run
// is complete, 2 at least one test failed, 4 the run is incomplete
// (shards failed, tests errored, or -timeout or a signal cut the run
// short — the cluster could not vouch for the whole suite; what did
// merge is still printed and reported), 1 usage or setup errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"yardstick"
	"yardstick/internal/coord"
	"yardstick/internal/engine"
	"yardstick/internal/obs"
	"yardstick/internal/topogen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "yardstick-coord:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// reportFile is the -report artifact: the run's per-shard and per-node
// accounting as JSON, for CI to archive and humans to diff. The embedded
// Totals put the run's wire and merge figures (fragmentBytes, fetchMs,
// decodeMs, mergeMs, networkPushes, networkPushSkipped) at the top
// level; each shard row carries its own. Timeline is the cross-node span
// tree — coordinator dispatch spans with each shard's worker-side
// profile grafted in, all tagged with RunID.
type reportFile struct {
	RunID    string              `json:"runId"`
	Suites   []string            `json:"suites"`
	Rounds   int                 `json:"rounds"`
	Complete bool                `json:"complete"`
	Shards   []coord.ShardStatus `json:"shards"`
	Nodes    []coord.NodeReport  `json:"nodes"`
	coord.Totals
	Timeline *obs.SpanProfile `json:"timeline,omitempty"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("yardstick-coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodesArg      = fs.String("nodes", "", "comma-separated worker base URLs (required)")
		suiteArg      = fs.String("suite", "default,internal", "comma-separated built-in suites; each becomes one shard, but reach and pingmesh share one")
		topology      = fs.String("topology", "regional", "generated network: example, fattree, or regional")
		netFile       = fs.String("net", "", "network from a JSON or text file instead of -topology")
		k             = fs.Int("k", 8, "fat-tree arity")
		rounds        = fs.Int("rounds", 1, "repeat the shard list this many times (coverage is unchanged — merge is idempotent — but the run stretches, useful for soak and chaos testing)")
		concurrency   = fs.Int("concurrency", 0, "in-flight shard cap (0 = 2 per node)")
		shardTimeout  = fs.Duration("shard-timeout", 60*time.Second, "per-attempt deadline: submit, poll, fetch fragment")
		attempts      = fs.Int("attempts", 3, "dispatch attempts per shard")
		backoff       = fs.Duration("backoff", 100*time.Millisecond, "base retry backoff (doubled per attempt, jittered, Retry-After honored)")
		poll          = fs.Duration("poll", 0, "poll interval for a job not finished when its submit answers (0 = client default)")
		failThreshold = fs.Int("fail-threshold", 3, "consecutive failures that trip a node's circuit breaker")
		cooldown      = fs.Duration("cooldown", 2*time.Second, "breaker open time before a half-open probe")
		runTimeout    = fs.Duration("timeout", 0, "whole-run deadline (0 = none)")
		reportPath    = fs.String("report", "", "write the per-shard/per-node JSON report (with run timeline) here")
		metricsAddr   = fs.String("metrics-addr", "", "serve the coordinator's federated /metrics, /stats, /healthz here for the duration of the run")
		scrapeEvery   = fs.Duration("scrape-interval", 2*time.Second, "worker metric federation scrape interval (needs -metrics-addr)")
		profileOut    = fs.Bool("profile", false, "print the cross-node run timeline (flame view) after the run")
		verbose       = fs.Bool("v", false, "log dispatch, retry, and breaker events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *nodesArg == "" {
		return 1, fmt.Errorf("-nodes is required")
	}
	var nodes []string
	for _, n := range strings.Split(*nodesArg, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	suites := strings.Split(*suiteArg, ",")
	for i := range suites {
		suites[i] = strings.TrimSpace(suites[i])
	}

	// The coordinator owns the authoritative replica, so it must have a
	// network; the role order matches the yardstick CLI's, so the two
	// tools render diffable coverage tables.
	built, err := topogen.Load(*netFile, *topology, *k, false)
	if err != nil {
		return 1, err
	}
	nw := built.Net

	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if *verbose {
		logger = slog.New(slog.NewTextHandler(stderr, nil)).With("app", "yardstick-coord")
	}
	co, err := coord.New(coord.Config{
		Nodes:            nodes,
		Net:              nw,
		Rounds:           *rounds,
		Concurrency:      *concurrency,
		ShardTimeout:     *shardTimeout,
		MaxAttempts:      *attempts,
		Backoff:          *backoff,
		Poll:             *poll,
		FailureThreshold: *failThreshold,
		Cooldown:         *cooldown,
		Logger:           logger,
	})
	if err != nil {
		return 1, err
	}

	// The metrics listener and federation loop live for the whole run:
	// CI (or a human) scrapes the coordinator mid-run for the fleet view.
	// Both are torn down before exit — the coordinator is a batch tool.
	if *metricsAddr != "" {
		ln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			return 1, fmt.Errorf("metrics listener: %w", lerr)
		}
		srv := &http.Server{Handler: co.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		fedCtx, fedStop := context.WithCancel(ctx)
		defer fedStop()
		go co.Federate(fedCtx, *scrapeEvery)
		fmt.Fprintf(stdout, "metrics: http://%s/metrics\n", ln.Addr())
	}

	if *runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTimeout)
		defer cancel()
	}
	// A run cut short by -timeout or a signal still returns what it
	// merged: report it, and hand the cancellation back with the verdict.
	res, runErr := co.Run(ctx, suites...)
	if res == nil {
		return 1, runErr
	}

	fmt.Fprintf(stdout, "run %s\n", res.RunID)

	// Shard and node accounting first: on a degraded run this is the
	// diagnosis.
	done := 0
	for _, sh := range res.Shards {
		if sh.Done {
			done++
		}
	}
	fmt.Fprintf(stdout, "shards: %d/%d complete over %d nodes\n", done, len(res.Shards), len(res.Nodes))
	for _, nr := range res.Nodes {
		fmt.Fprintf(stdout, "  %-32s %-9s dispatched %3d  ok %3d  failed %3d  shed %3d  trips %d\n",
			nr.Node, nr.State, nr.Dispatched, nr.Succeeded, nr.Failed, nr.Sheds, nr.Trips)
	}
	for _, sh := range res.Shards {
		if !sh.Done {
			fmt.Fprintf(stdout, "  shard %d (%s, round %d) FAILED after %d attempts: %s\n",
				sh.ID, sh.Suite, sh.Round, sh.Attempts, sh.Error)
		}
	}

	failed, errored := false, false
	fmt.Fprintln(stdout, "\ntests:")
	for _, s := range suites {
		for _, r := range res.Tests[s] {
			status := "PASS"
			switch {
			case r.Errored:
				status = fmt.Sprintf("ERROR (%s)", r.Error)
				errored = true
			case !r.Pass:
				status = fmt.Sprintf("FAIL (%d failures)", len(r.Failures))
				failed = true
			}
			fmt.Fprintf(stdout, "  %-24s %-18s %6d checks  %s\n", r.Name, r.Kind, r.Checks, status)
		}
	}

	// The run's context may have ended; the partial table is still owed.
	tctx := context.WithoutCancel(ctx)
	eng := engine.New(nw, engine.Config{})
	if err := eng.MergeTrace(tctx, res.Trace); err != nil {
		return 1, err
	}
	rows, err := eng.Table(tctx, "", built.Roles, "TOTAL")
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, "\ncoverage:")
	yardstick.RenderTable(stdout, rows)

	if *profileOut {
		fmt.Fprintln(stdout, "\ntimeline:")
		obs.WriteFlameProfile(stdout, res.Timeline)
	}

	if *reportPath != "" {
		rep := reportFile{RunID: res.RunID, Suites: suites, Rounds: *rounds,
			Complete: res.Complete, Shards: res.Shards, Nodes: res.Nodes,
			Totals: res.Totals, Timeline: res.Timeline}
		buf, merr := json.MarshalIndent(rep, "", " ")
		if merr != nil {
			return 1, merr
		}
		if werr := os.WriteFile(*reportPath, append(buf, '\n'), 0o644); werr != nil {
			return 1, werr
		}
		fmt.Fprintf(stdout, "\nwrote run report to %s\n", *reportPath)
	}

	switch {
	case failed:
		return 2, runErr
	case !res.Complete || errored:
		// Incomplete runs and errored tests share a verdict: the cluster
		// did not vouch for the whole suite.
		return 4, runErr
	}
	return 0, nil
}
