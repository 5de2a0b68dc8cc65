// Command churn replays a deterministic BGP flap schedule against a
// live yardstickd through PATCH /network and proves the daemon's
// incremental coverage stayed exact: after the full schedule, the
// daemon-side trace must equal the locally maintained one bit for bit,
// the final coverage table must byte-match the table computed from a
// from-scratch rebuild of the churned network, and so must the gap
// report the daemon serves from its maintained coverage view.
//
//	yardstickd -listen :8080 &
//	churn -addr http://127.0.0.1:8080 -events 50 -check
//
// The driver keeps a local twin of the daemon's state: the same
// network and the same suite-recorded trace in the same engine. Every
// flap event is re-converged by control-plane replay, diffed into a
// delta document, and applied to both sides in lockstep with the base
// fingerprint asserting neither drifted. With -check any divergence
// exits 1 — this is the churn-smoke CI gate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"yardstick/internal/bgp"
	"yardstick/internal/client"
	"yardstick/internal/delta"
	"yardstick/internal/engine"
	"yardstick/internal/netmodel"
	"yardstick/internal/report"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
	"yardstick/internal/topogen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr   = fs.String("addr", "http://127.0.0.1:8080", "base URL of the daemon")
		events = fs.Int("events", 50, "flap events to replay")
		seed   = fs.Int64("seed", 1, "flap schedule seed")
		suite  = fs.String("suite", "default,internal,reach", "suites recorded into the initial trace")
		wait   = fs.Duration("wait", 10*time.Second, "how long to wait for the daemon to become ready")
		check  = fs.Bool("check", false, "exit 1 on any incremental-vs-rebuild divergence")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rg, err := topogen.BuildRegional(topogen.RegionalOpts{
		DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2,
		SpinesPerDC: 2, Hubs: 2, WANHubs: 1, WANPrefixes: 4,
	})
	if err != nil {
		return err
	}
	suites, err := testkit.BuiltinSuite(*suite)
	if err != nil {
		return err
	}

	// The local twin: an engine over the same network, with the suite run
	// once into its trace.
	eng := engine.New(rg.Net, engine.Config{})
	results, err := eng.Run(ctx, "", suites, 1, nil)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Errored() {
			return fmt.Errorf("suite %s errored: %s", r.Name, r.Err)
		}
	}

	cli := client.New(*addr)
	if err := waitReady(ctx, cli, *wait); err != nil {
		return err
	}
	st, err := cli.LoadNetwork(ctx, rg.Net)
	if err != nil {
		return err
	}
	if st.Fingerprint != eng.Fingerprint() {
		return fmt.Errorf("daemon loaded fingerprint %s, local %s", st.Fingerprint, eng.Fingerprint())
	}
	if _, err := cli.ReportTrace(ctx, eng.Trace()); err != nil {
		return err
	}

	// Lockstep replay: every event patches the daemon and the twin with
	// the same document; the base fingerprint precondition catches any
	// divergence on the spot.
	replay := bgp.NewReplay(bgp.Config{
		Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export,
	})
	flaps := bgp.GenFlaps(*seed, *events, len(rg.Origins))
	var opsTotal int
	start := time.Now()
	for i, ev := range flaps {
		if err := replay.Toggle(ev); err != nil {
			return err
		}
		next, err := replay.Build()
		if err != nil {
			return err
		}
		ops, err := delta.Diff(eng.Net(), next)
		if err != nil {
			return err
		}
		opsTotal += len(ops)
		doc := delta.Document{Base: eng.Fingerprint(), Ops: ops}
		remote, err := cli.PatchNetwork(ctx, doc)
		if err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		local, err := eng.Patch(ctx, doc)
		if err != nil {
			return fmt.Errorf("event %d locally: %w", i, err)
		}
		if remote.Fingerprint != local.Fingerprint {
			return fmt.Errorf("event %d: daemon fingerprint %s, local %s — states diverged",
				i, remote.Fingerprint, local.Fingerprint)
		}
	}
	fmt.Fprintf(stdout, "replayed %d events (%d ops) in %s; final fingerprint %.12s…\n",
		len(flaps), opsTotal, time.Since(start).Round(time.Millisecond), eng.Fingerprint())

	// Proof part 1: the daemon's accumulated trace equals the local twin's.
	remoteTrace, err := cli.FetchTrace(ctx, eng.Net())
	if err != nil {
		return err
	}
	traceOK := remoteTrace.Equal(eng.Trace())

	// Proof part 2: the incremental final coverage table byte-matches
	// the table from a from-scratch rebuild of the churned network.
	var buf bytes.Buffer
	if err := eng.Net().EncodeJSON(&buf); err != nil {
		return err
	}
	rb, err := netmodel.DecodeJSON(&buf)
	if err != nil {
		return err
	}
	rebuilt := engine.New(rb, engine.Config{})
	if err := rebuilt.MergeTrace(ctx, eng.Trace().TransferTo(rb.Space)); err != nil {
		return err
	}
	incremental := engine.New(eng.Net(), engine.Config{})
	if err := incremental.MergeTrace(ctx, remoteTrace); err != nil {
		return err
	}
	incTable, err := renderTables(ctx, incremental)
	if err != nil {
		return err
	}
	rbTable, err := renderTables(ctx, rebuilt)
	if err != nil {
		return err
	}
	tableOK := bytes.Equal(incTable, rbTable)

	// Proof part 3: what the daemon itself serves. GET /gaps reads the
	// coverage view the daemon carried across every delta (its rule IDs
	// compacted fifty times over); its body must byte-match the gap
	// report of the rebuild.
	remoteGaps, err := cli.Gaps(ctx)
	if err != nil {
		return err
	}
	rbGaps := []service.Gap{}
	for _, g := range report.Gaps(rebuilt.Coverage()) {
		rbGaps = append(rbGaps, service.Gap{Origin: string(g.Origin), Role: string(g.Role), Count: g.Count})
	}
	gotGaps, err := json.Marshal(remoteGaps)
	if err != nil {
		return err
	}
	wantGaps, err := json.Marshal(rbGaps)
	if err != nil {
		return err
	}
	gapsOK := bytes.Equal(gotGaps, wantGaps)

	fmt.Fprintf(stdout, "\nfinal coverage (incremental, daemon trace):\n%s", incTable)
	fmt.Fprintf(stdout, "\ntrace equal: %v\ncoverage table byte-identical to rebuild: %v\ndaemon gap report byte-identical to rebuild: %v\n", traceOK, tableOK, gapsOK)
	if !tableOK {
		fmt.Fprintf(stdout, "\nrebuild table:\n%s", rbTable)
	}
	if !gapsOK {
		fmt.Fprintf(stdout, "\ndaemon gaps:  %s\nrebuild gaps: %s\n", gotGaps, wantGaps)
	}
	if *check && !(traceOK && tableOK && gapsOK) {
		return fmt.Errorf("incremental state diverged from rebuild")
	}
	return nil
}

// waitReady polls liveness — not /readyz, which stays 503 until a
// network is loaded, and loading it is this driver's own first step.
func waitReady(ctx context.Context, cli *client.Client, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		err := cli.Healthz(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not up at deadline: %w", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// renderTables renders the by-role coverage table plus the config-line
// coverage table — the byte-diff surface.
func renderTables(ctx context.Context, eng *engine.Engine) ([]byte, error) {
	rows, err := eng.Table(ctx, "", eng.Net().Roles(), "TOTAL")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	report.RenderTable(&buf, rows)
	report.RenderConfig(&buf, report.ConfigCoverage(eng.Coverage()))
	return buf.Bytes(), nil
}
