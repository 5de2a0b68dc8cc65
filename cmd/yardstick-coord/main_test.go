package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"yardstick"
	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

func startWorker(t *testing.T) string {
	t.Helper()
	srv := service.New(service.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); srv.RunJobs(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return ts.URL
}

// TestCoordCLI drives the full binary body against three in-process
// workers and checks the cluster's coverage table is byte-identical to
// a single-node sequential run of the same suites. Reach and pingmesh
// share a shard, so three suites make two shards a round, and the tests
// section still lists one result per suite, in suite order.
func TestCoordCLI(t *testing.T) {
	nodes := []string{startWorker(t), startWorker(t), startWorker(t)}
	report := filepath.Join(t.TempDir(), "report.json")

	var out, errOut bytes.Buffer
	code, err := run(context.Background(), []string{
		"-nodes", strings.Join(nodes, ","),
		"-suite", "default,reach,pingmesh",
		"-rounds", "2",
		"-poll", "2ms",
		"-report", report,
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "shards: 4/4 complete over 3 nodes") {
		t.Fatalf("missing shard summary in output:\n%s", out.String())
	}

	// The cluster coverage table must match a single-node run exactly.
	built, err := topogen.Load("", "regional", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	nw, roles := built.Net, built.Roles
	suite, err := yardstick.BuiltinSuite("default,reach,pingmesh")
	if err != nil {
		t.Fatal(err)
	}
	tests := regexp.MustCompile(`(?m)^  (\S+) +\S+ +\d+ checks `).FindAllStringSubmatch(out.String(), -1)
	var names []string
	for _, m := range tests {
		names = append(names, m[1])
	}
	if want := []string{"DefaultRouteCheck", "ToRReachability", "ToRPingmesh"}; !slices.Equal(names, want) {
		t.Fatalf("tests section lists %q, want %q:\n%s", names, want, out.String())
	}
	trace := yardstick.NewTrace()
	suite.Run(context.Background(), nw, trace)
	cov := yardstick.NewCoverage(nw, trace)
	rows := yardstick.ReportByRole(cov, roles)
	rows = append(rows, yardstick.ReportTotal(cov, "TOTAL"))
	var want bytes.Buffer
	yardstick.RenderTable(&want, rows)
	if !strings.Contains(out.String(), want.String()) {
		t.Fatalf("cluster coverage table differs from single-node run.\nwant:\n%s\ngot:\n%s", want.String(), out.String())
	}

	var rep reportFile
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if !rep.Complete || len(rep.Shards) != 4 || len(rep.Nodes) != 3 {
		t.Fatalf("report = %+v, want complete with 4 shards over 3 nodes", rep)
	}
	for i, want := range []string{"reach,pingmesh", "default", "reach,pingmesh", "default"} {
		if rep.Shards[i].Suite != want {
			t.Errorf("shard %d suite = %q, want %q", i, rep.Shards[i].Suite, want)
		}
	}
	// The wire ledger: every shard names its fragment, the totals add up,
	// and the field names CI's jq assertions read are the ones written.
	var fragBytes int64
	for _, sh := range rep.Shards {
		if sh.FragmentFormat != "arena" || sh.FragmentBytes == 0 {
			t.Errorf("shard %+v: want an arena fragment with its size", sh)
		}
		fragBytes += int64(sh.FragmentBytes)
	}
	if rep.FragmentBytes != fragBytes {
		t.Errorf("report fragmentBytes = %d, shards sum to %d", rep.FragmentBytes, fragBytes)
	}
	// The workers started empty: every node that was given a shard was
	// pushed the network once, none was skipped.
	if rep.NetworkPushes < 1 || rep.NetworkPushes > 3 || rep.NetworkPushSkipped != 0 {
		t.Errorf("report networkPushes = %d, networkPushSkipped = %d; want 1..3 and 0", rep.NetworkPushes, rep.NetworkPushSkipped)
	}
	for _, key := range []string{`"fragmentFormat": "arena"`, `"fragmentBytes"`, `"fetchMs"`, `"decodeMs"`, `"mergeMs"`, `"networkPushes"`, `"networkPushSkipped"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("report JSON lacks %s", key)
		}
	}
}

// TestCoordCLICancelledRun: a run whose context has ended still reports
// what it has — the shard accounting, the table and a -report listing
// every shard, none of them done — and exits 4 (incomplete) with the
// cancellation as its error.
func TestCoordCLICancelledRun(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut bytes.Buffer
	code, err := run(ctx, []string{
		"-nodes", startWorker(t),
		"-suite", "default,internal",
		"-rounds", "2",
		"-report", report,
	}, &out, &errOut)
	if code != 4 || !errors.Is(err, context.Canceled) {
		t.Fatalf("run = (%d, %v), want (4, context canceled)\n%s", code, err, out.String())
	}
	for _, want := range []string{"shards: 0/4 complete over 1 nodes", "\ncoverage:\n", "wrote run report"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	var rep reportFile
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Complete || len(rep.Shards) != 4 {
		t.Fatalf("report complete=%v with %d shards, want incomplete with 4", rep.Complete, len(rep.Shards))
	}
	for _, sh := range rep.Shards {
		if sh.Done {
			t.Errorf("shard %+v done in a run cancelled before it started", sh)
		}
	}
}

func TestCoordCLIFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code, err := run(context.Background(), nil, &out, &errOut); err == nil || code != 1 {
		t.Fatalf("missing -nodes = (%d, %v), want usage error", code, err)
	}
	if code, err := run(context.Background(), []string{"-nodes", "http://x", "-topology", "bogus"},
		&out, &errOut); err == nil || code != 1 {
		t.Fatalf("bad topology = (%d, %v), want setup error", code, err)
	}
}
