// Command yardstick runs a test suite against a network and reports
// coverage metrics — the end-to-end workflow of the paper's Figure 4:
// tests report what they exercise while they run, and metrics are
// computed afterwards from the coverage trace.
//
// The network is either generated (-topology example|fattree|regional)
// or loaded from JSON (-net file.json, as produced by the netgen tool).
//
// Example:
//
//	yardstick -topology regional -suite default,agg -gaps
//	yardstick -topology fattree -k 8 -suite reach,pingmesh -paths
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"yardstick"
	"yardstick/internal/dataplane"
	"yardstick/internal/engine"
	"yardstick/internal/obs"
	"yardstick/internal/topogen"
)

func main() {
	// Ctrl-C / SIGTERM cancel long evaluations cleanly: suites stop
	// between tests, path walks stop mid-stream, and whatever partial
	// output was produced still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the CLI body, factored out of main so a test can drive it and
// pin its output: it returns the exit code (0 all tests passed, 2 a test
// failed, 4 a test errored, 3 a coverage gate failed, 1 usage or setup
// errors) instead of exiting.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("yardstick", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		topology = fs.String("topology", "regional", "network to generate: example, fattree, or regional")
		netFile  = fs.String("net", "", "load network from JSON instead of generating")
		k        = fs.Int("k", 8, "fat-tree arity (fattree topology)")
		bug      = fs.Bool("bug", false, "inject the null-routed default on border b2 (example topology)")
		suiteArg = fs.String("suite", "default,agg", "comma-separated tests: default, connected, internal, agg, contract, reach, pingmesh, wan, host")
		gaps     = fs.Bool("gaps", false, "print untested rules bucketed by origin and role")
		paths    = fs.Bool("paths", false, "also compute path coverage (expensive)")
		pathMax  = fs.Int("pathbudget", 200000, "maximum paths to process for path coverage (0 = unlimited)")
		detail   = fs.String("detail", "", "zoom into one device: list its partially tested rules with uncovered destinations")
		traceIn  = fs.String("trace-in", "", "load a prior coverage trace and merge it before computing metrics")
		traceOut = fs.String("trace-out", "", "write the accumulated coverage trace for future runs")
		suggest  = fs.Bool("suggest", false, "rank the known tests not in -suite by how much coverage each would add")
		genN     = fs.Int("genprobes", 0, "generate up to N concrete probes covering the remaining untested rules (ATPG-style)")
		htmlOut  = fs.String("html", "", "write a self-contained HTML coverage report to this file")
		workers  = fs.Int("workers", 1, "suite parallelism: replicate the network across N workers with private BDD spaces (0 = GOMAXPROCS, 1 = sequential)")
		minRule  = fs.Float64("min-rule", 0, "CI gate: exit 3 when fractional rule coverage is below this (0..1)")
		minIface = fs.Float64("min-iface", 0, "CI gate: exit 3 when fractional interface coverage is below this (0..1)")
		flowArg  = fs.String("flow", "", "narrow to one flow, device:dstPrefix (e.g. dc0-p0-tor0:10.0.4.0/24): report its end-to-end coverage")
		profile  = fs.Bool("profile", false, "print a span-tree profile of the run (stage timings and BDD work) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "yardstick:", err)
		return 1
	}

	// -profile hangs a root span on the context: the sharded engine and
	// the BDD stat flushes attach their detail to whatever span rides
	// there, and with prof nil every instrumentation call no-ops.
	var prof *obs.Span
	if *profile {
		prof = obs.NewRoot("yardstick", obs.NewRegistry())
		ctx = obs.ContextWithSpan(ctx, prof)
	}

	bsp := prof.Child("build")
	built, err := topogen.Load(*netFile, *topology, *k, *bug)
	bsp.End()
	if err != nil {
		return fail(err)
	}
	net := built.Net
	st := net.Stats()
	fmt.Fprintf(stdout, "network: %d devices, %d interfaces, %d links, %d rules\n\n",
		st.Devices, st.Ifaces, st.Links, st.Rules)

	suite, err := parseSuite(*suiteArg, built)
	if err != nil {
		return fail(err)
	}

	// Anything but one worker is a parallel run: the engine replicates
	// the network once per worker (arena clones of this space, carrying
	// its match sets by node index), shards the suite, and merges the
	// per-worker traces back into this space. Results and metrics match
	// the sequential path exactly.
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	eng := engine.New(net, engine.Config{Workers: *workers})
	if *traceIn != "" {
		prev, err := os.ReadFile(*traceIn)
		if err != nil {
			return fail(err)
		}
		if _, err := eng.Merge(ctx, prev); err != nil {
			return fail(err)
		}
		st := eng.Trace().Stats()
		fmt.Fprintf(stdout, "merged prior trace: %d locations, %d inspected rules\n\n", st.Locations, st.MarkedRules)
	}
	if *workers > 1 {
		fmt.Fprintf(stdout, "parallel run: %d workers\n\n", *workers)
	}
	results, err := eng.Run(ctx, "suite.run", suite, nil)
	if err != nil {
		fmt.Fprintln(stderr, "yardstick: run aborted:", err)
	}
	fmt.Fprintln(stdout, "test results:")
	failed := false
	errored := false
	for _, r := range results {
		status := "PASS"
		switch {
		case r.Errored():
			status = fmt.Sprintf("ERROR (%s)", r.Err)
			errored = true
		case !r.Pass():
			status = fmt.Sprintf("FAIL (%d failures)", len(r.Failures))
			failed = true
		}
		fmt.Fprintf(stdout, "  %-24s %-18s %6d checks  %s\n", r.Name, r.Kind, r.Checks, status)
		for i, f := range r.Failures {
			if i == 5 {
				fmt.Fprintf(stdout, "    ... %d more\n", len(r.Failures)-5)
				break
			}
			fmt.Fprintf(stdout, "    %s: %s\n", net.Device(f.Device).Name, f.Detail)
		}
	}
	fmt.Fprintln(stdout)

	rows, err := eng.Table(ctx, "coverage", built.Roles, "TOTAL")
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "coverage:")
	yardstick.RenderTable(stdout, rows)
	// The sections below read the view the table just brought up to date.
	cov, trace := eng.Coverage(), eng.Trace()

	if *paths {
		fmt.Fprintln(stdout)
		var res yardstick.PathCoverageResult
		if err := eng.View(ctx, "paths", func(cov *yardstick.Coverage) {
			res = yardstick.PathCoverage(ctx, cov, nil, dataplane.EnumOpts{MaxPaths: *pathMax}, yardstick.Fractional)
		}); err != nil {
			return fail(err)
		}
		complete := "complete"
		if !res.Complete {
			complete = "budget exhausted"
		}
		fmt.Fprintf(stdout, "path coverage (fractional): %.1f%% over %d paths (%s)\n",
			100*res.Value, res.Paths, complete)
	}

	if *flowArg != "" {
		devName, prefix, ok := strings.Cut(*flowArg, ":")
		if !ok {
			return fail(errors.New("-flow wants device:dstPrefix"))
		}
		dev, found := net.DeviceByName(devName)
		if !found {
			return fail(fmt.Errorf("no device %q", devName))
		}
		p, err := netip.ParsePrefix(prefix)
		if err != nil {
			return fail(fmt.Errorf("bad prefix %q: %v", prefix, err))
		}
		flow := net.Space.DstPrefix(p)
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "flow coverage (%s -> %s, end-to-end): %.1f%%\n",
			devName, p, 100*yardstick.FlowCoverage(cov, yardstick.Injected(dev.ID), flow))
	}

	if *gaps {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "testing gaps (untested rules):")
		yardstick.RenderGaps(stdout, yardstick.ReportGaps(cov))
	}

	if *detail != "" {
		dev, ok := net.DeviceByName(*detail)
		if !ok {
			return fail(fmt.Errorf("no device %q", *detail))
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "zoom-in: partially tested rules on %s:\n", dev.Name)
		rows := yardstick.UncoveredDetail(cov, yardstick.RulesOfDevices(net, []yardstick.DeviceID{dev.ID}), 6)
		yardstick.RenderUncoveredDetail(stdout, rows)
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return fail(err)
		}
		rep := yardstick.BuildHTMLReport(cov, "Yardstick coverage report", built.Roles, 40)
		if err := rep.RenderHTML(f); err != nil {
			f.Close()
			return fail(err)
		}
		f.Close()
		fmt.Fprintf(stdout, "\nwrote HTML report to %s\n", *htmlOut)
	}

	if *suggest {
		var candidates yardstick.Suite
		names := []string{"default", "connected", "internal", "agg", "contract", "host"}
		if built.Regional != nil {
			names = append(names, "wan")
		}
		for _, name := range names {
			if strings.Contains(*suiteArg, name) {
				continue
			}
			s, err := parseSuite(name, built)
			if err == nil {
				candidates = append(candidates, s...)
			}
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "suggested next tests (by marginal rule-coverage gain):")
		for _, r := range yardstick.RankCandidates(ctx, net, trace, candidates, yardstick.Fractional) {
			fmt.Fprintf(stdout, "  %-24s +%5.1f%% -> %5.1f%%\n", r.Test.Name(), 100*r.Gain, 100*r.Coverage)
		}
	}

	if *genN > 0 {
		res := yardstick.GenerateProbes(ctx, cov, yardstick.ProbeGenOptions{MaxProbes: *genN})
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "generated probes (%d, covering %s):\n", len(res.Probes), "previously untested rules")
		for _, p := range res.Probes {
			fmt.Fprintf(stdout, "  inject at %-20s %-54s -> %-10s covers %d rules\n",
				net.Device(p.Start.Device).Name, p.Packet, p.End, len(p.Covers))
		}
		if len(res.Uncoverable) > 0 {
			fmt.Fprintf(stdout, "  %d rules unreachable from the edge (need local tests or state inspection)\n", len(res.Uncoverable))
		}
		if res.Remaining > 0 {
			fmt.Fprintf(stdout, "  %d untested rules remain (probe budget exhausted; raise -genprobes)\n", res.Remaining)
		}
	}

	if *traceOut != "" {
		data, err := eng.EncodeFragment(ctx, trace, false)
		if err == nil {
			err = os.WriteFile(*traceOut, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "\nwrote coverage trace to %s\n", *traceOut)
	}

	if prof != nil {
		prof.End()
		fmt.Fprintln(stderr)
		obs.WriteFlame(stderr, prof)
	}

	if failed {
		return 2
	}
	if errored {
		// Errored tests never vouch for the network: distinct exit code
		// so CI can tell "tests failed" from "tests did not finish".
		return 4
	}

	// Coverage gates: like software coverage thresholds in CI, a suite
	// that passes but covers too little fails the build.
	gateFailed := false
	if *minRule > 0 {
		if got := yardstick.RuleCoverage(cov, nil, yardstick.Fractional); got < *minRule {
			fmt.Fprintf(stderr, "yardstick: rule coverage %.1f%% below gate %.1f%%\n", 100*got, 100**minRule)
			gateFailed = true
		}
	}
	if *minIface > 0 {
		if got := yardstick.InterfaceCoverage(cov, nil, yardstick.Fractional); got < *minIface {
			fmt.Fprintf(stderr, "yardstick: interface coverage %.1f%% below gate %.1f%%\n", 100*got, 100**minIface)
			gateFailed = true
		}
	}
	if gateFailed {
		return 3
	}
	return 0
}

// parseSuite resolves -suite. The wan test is built here rather than in
// testkit.BuiltinSuite: it needs the regional generator's WAN route
// specification.
func parseSuite(arg string, built *topogen.Loaded) (yardstick.Suite, error) {
	var suite yardstick.Suite
	var rest []string
	for _, name := range strings.Split(arg, ",") {
		if strings.TrimSpace(name) == "wan" {
			if built.Regional == nil {
				return nil, fmt.Errorf("the wan test needs -topology regional (it uses the generator's WAN route specification)")
			}
			suite = append(suite, yardstick.WideAreaRouteCheck{
				Prefixes:   built.Regional.WANPrefixes,
				WANDevices: built.Regional.WANHubs,
			})
			continue
		}
		rest = append(rest, name)
	}
	if len(rest) > 0 {
		more, err := yardstick.BuiltinSuite(strings.Join(rest, ","))
		if err != nil {
			return nil, err
		}
		suite = append(suite, more...)
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("empty test suite")
	}
	return suite, nil
}
