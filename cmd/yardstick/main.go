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
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"yardstick"
	"yardstick/internal/dataplane"
	"yardstick/internal/obs"
)

func main() {
	// Ctrl-C / SIGTERM cancel long evaluations cleanly: suites stop
	// between tests, path walks stop mid-stream, and whatever partial
	// output was produced still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		topology = flag.String("topology", "regional", "network to generate: example, fattree, or regional")
		netFile  = flag.String("net", "", "load network from JSON instead of generating")
		k        = flag.Int("k", 8, "fat-tree arity (fattree topology)")
		bug      = flag.Bool("bug", false, "inject the null-routed default on border b2 (example topology)")
		suiteArg = flag.String("suite", "default,agg", "comma-separated tests: default, connected, internal, agg, contract, reach, pingmesh, wan, host")
		gaps     = flag.Bool("gaps", false, "print untested rules bucketed by origin and role")
		paths    = flag.Bool("paths", false, "also compute path coverage (expensive)")
		pathMax  = flag.Int("pathbudget", 200000, "maximum paths to process for path coverage (0 = unlimited)")
		detail   = flag.String("detail", "", "zoom into one device: list its partially tested rules with uncovered destinations")
		traceIn  = flag.String("trace-in", "", "load a prior coverage trace and merge it before computing metrics")
		traceOut = flag.String("trace-out", "", "write the accumulated coverage trace for future runs")
		suggest  = flag.Bool("suggest", false, "rank the known tests not in -suite by how much coverage each would add")
		genN     = flag.Int("genprobes", 0, "generate up to N concrete probes covering the remaining untested rules (ATPG-style)")
		htmlOut  = flag.String("html", "", "write a self-contained HTML coverage report to this file")
		workers  = flag.Int("workers", 1, "suite parallelism: replicate the network across N workers with private BDD spaces (0 = GOMAXPROCS, 1 = sequential)")
		minRule  = flag.Float64("min-rule", 0, "CI gate: exit 3 when fractional rule coverage is below this (0..1)")
		minIface = flag.Float64("min-iface", 0, "CI gate: exit 3 when fractional interface coverage is below this (0..1)")
		flowArg  = flag.String("flow", "", "narrow to one flow, device:dstPrefix (e.g. dc0-p0-tor0:10.0.4.0/24): report its end-to-end coverage")
		profile  = flag.Bool("profile", false, "print a span-tree profile of the run (stage timings and BDD work) to stderr")
	)
	flag.Parse()

	// -profile hangs a root span on the context: the sharded engine and
	// the BDD stat flushes attach their detail to whatever span rides
	// there, and with prof nil every instrumentation call no-ops.
	var prof *obs.Span
	if *profile {
		prof = obs.NewRoot("yardstick", obs.NewRegistry())
		ctx = obs.ContextWithSpan(ctx, prof)
	}

	bsp := prof.Child("build")
	built, err := buildNetwork(*topology, *netFile, *k, *bug)
	bsp.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "yardstick:", err)
		os.Exit(1)
	}
	net, roles := built.net, built.roles
	st := net.Stats()
	fmt.Printf("network: %d devices, %d interfaces, %d links, %d rules\n\n",
		st.Devices, st.Ifaces, st.Links, st.Rules)

	suite, err := parseSuite(*suiteArg, built)
	if err != nil {
		fmt.Fprintln(os.Stderr, "yardstick:", err)
		os.Exit(1)
	}

	trace := yardstick.NewTrace()
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		prev, err := yardstick.DecodeTraceJSON(net, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		trace.Merge(prev)
		st := prev.Stats()
		fmt.Printf("merged prior trace: %d locations, %d inspected rules\n\n", st.Locations, st.MarkedRules)
	}
	stopWatch := net.Space.WatchContext(ctx)
	rsp := prof.Child("suite.run")
	runCtx := ctx
	if rsp != nil {
		runCtx = obs.ContextWithSpan(ctx, rsp)
	}
	runBase := net.Space.EngineStats()
	var results []yardstick.TestResult
	if *workers != 1 {
		// Parallel run: replicate the network once per worker (arena
		// clones of this space, carrying its match sets by node index),
		// shard the suite, and merge the per-worker traces back into this
		// space. Results and metrics match the sequential path exactly.
		eng, err := yardstick.NewShardedEngine(runCtx, net, yardstick.ShardedConfig{
			Workers: *workers,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		fmt.Printf("parallel run: %d workers\n\n", eng.Workers())
		res, err := eng.Run(runCtx, suite)
		results = res.Results
		trace.Merge(res.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yardstick: run aborted:", err)
		}
	} else if err := yardstick.GuardBudget(func() { results = suite.Run(runCtx, net, trace) }); err != nil {
		fmt.Fprintln(os.Stderr, "yardstick: run aborted:", err)
	}
	rsp.End()
	net.Space.FlushStats(rsp, prof.Registry(), runBase)
	stopWatch()
	fmt.Println("test results:")
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
		fmt.Printf("  %-24s %-18s %6d checks  %s\n", r.Name, r.Kind, r.Checks, status)
		for i, f := range r.Failures {
			if i == 5 {
				fmt.Printf("    ... %d more\n", len(r.Failures)-5)
				break
			}
			fmt.Printf("    %s: %s\n", net.Device(f.Device).Name, f.Detail)
		}
	}
	fmt.Println()

	csp := prof.Child("coverage")
	covBase := net.Space.EngineStats()
	cov := yardstick.NewCoverage(net, trace)
	rows := yardstick.ReportByRole(cov, roles)
	rows = append(rows, yardstick.ReportTotal(cov, "TOTAL"))
	csp.End()
	net.Space.FlushStats(csp, prof.Registry(), covBase)
	fmt.Println("coverage:")
	yardstick.RenderTable(os.Stdout, rows)

	if *paths {
		fmt.Println()
		psp := prof.Child("paths")
		pathBase := net.Space.EngineStats()
		res := yardstick.PathCoverage(ctx, cov, nil, dataplane.EnumOpts{MaxPaths: *pathMax}, yardstick.Fractional)
		psp.End()
		net.Space.FlushStats(psp, prof.Registry(), pathBase)
		complete := "complete"
		if !res.Complete {
			complete = "budget exhausted"
		}
		fmt.Printf("path coverage (fractional): %.1f%% over %d paths (%s)\n",
			100*res.Value, res.Paths, complete)
	}

	if *flowArg != "" {
		devName, prefix, ok := strings.Cut(*flowArg, ":")
		if !ok {
			fmt.Fprintln(os.Stderr, "yardstick: -flow wants device:dstPrefix")
			os.Exit(1)
		}
		dev, found := net.DeviceByName(devName)
		if !found {
			fmt.Fprintf(os.Stderr, "yardstick: no device %q\n", devName)
			os.Exit(1)
		}
		p, err := netip.ParsePrefix(prefix)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yardstick: bad prefix %q: %v\n", prefix, err)
			os.Exit(1)
		}
		flow := net.Space.DstPrefix(p)
		fmt.Println()
		fmt.Printf("flow coverage (%s -> %s, end-to-end): %.1f%%\n",
			devName, p, 100*yardstick.FlowCoverage(cov, yardstick.Injected(dev.ID), flow))
	}

	if *gaps {
		fmt.Println()
		fmt.Println("testing gaps (untested rules):")
		yardstick.RenderGaps(os.Stdout, yardstick.ReportGaps(cov))
	}

	if *detail != "" {
		dev, ok := net.DeviceByName(*detail)
		if !ok {
			fmt.Fprintf(os.Stderr, "yardstick: no device %q\n", *detail)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Printf("zoom-in: partially tested rules on %s:\n", dev.Name)
		rows := yardstick.UncoveredDetail(cov, yardstick.RulesOfDevices(net, []yardstick.DeviceID{dev.ID}), 6)
		yardstick.RenderUncoveredDetail(os.Stdout, rows)
	}

	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		rep := yardstick.BuildHTMLReport(cov, "Yardstick coverage report", roles, 40)
		if err := rep.RenderHTML(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote HTML report to %s\n", *htmlOut)
	}

	if *suggest {
		var candidates yardstick.Suite
		names := []string{"default", "connected", "internal", "agg", "contract", "host"}
		if built.regional != nil {
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
		fmt.Println()
		fmt.Println("suggested next tests (by marginal rule-coverage gain):")
		for _, r := range yardstick.RankCandidates(ctx, net, trace, candidates, yardstick.Fractional) {
			fmt.Printf("  %-24s +%5.1f%% -> %5.1f%%\n", r.Test.Name(), 100*r.Gain, 100*r.Coverage)
		}
	}

	if *genN > 0 {
		res := yardstick.GenerateProbes(ctx, cov, yardstick.ProbeGenOptions{MaxProbes: *genN})
		fmt.Println()
		fmt.Printf("generated probes (%d, covering %s):\n", len(res.Probes), "previously untested rules")
		for _, p := range res.Probes {
			fmt.Printf("  inject at %-20s %-54s -> %-10s covers %d rules\n",
				net.Device(p.Start.Device).Name, p.Packet, p.End, len(p.Covers))
		}
		if len(res.Uncoverable) > 0 {
			fmt.Printf("  %d rules unreachable from the edge (need local tests or state inspection)\n", len(res.Uncoverable))
		}
		if res.Remaining > 0 {
			fmt.Printf("  %d untested rules remain (probe budget exhausted; raise -genprobes)\n", res.Remaining)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		if err := trace.EncodeJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "yardstick:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nwrote coverage trace to %s\n", *traceOut)
	}

	if prof != nil {
		prof.End()
		fmt.Fprintln(os.Stderr)
		obs.WriteFlame(os.Stderr, prof)
	}

	if failed {
		os.Exit(2)
	}
	if errored {
		// Errored tests never vouch for the network: distinct exit code
		// so CI can tell "tests failed" from "tests did not finish".
		os.Exit(4)
	}

	// Coverage gates: like software coverage thresholds in CI, a suite
	// that passes but covers too little fails the build.
	gateFailed := false
	if *minRule > 0 {
		if got := yardstick.RuleCoverage(cov, nil, yardstick.Fractional); got < *minRule {
			fmt.Fprintf(os.Stderr, "yardstick: rule coverage %.1f%% below gate %.1f%%\n", 100*got, 100**minRule)
			gateFailed = true
		}
	}
	if *minIface > 0 {
		if got := yardstick.InterfaceCoverage(cov, nil, yardstick.Fractional); got < *minIface {
			fmt.Fprintf(os.Stderr, "yardstick: interface coverage %.1f%% below gate %.1f%%\n", 100*got, 100**minIface)
			gateFailed = true
		}
	}
	if gateFailed {
		os.Exit(3)
	}
}

// builtNetwork carries the network plus the generator metadata some
// tests need (the WAN route specification for WideAreaRouteCheck).
type builtNetwork struct {
	net      *yardstick.Network
	roles    []yardstick.Role
	regional *yardstick.RegionalNet // nil unless -topology regional
}

func buildNetwork(topology, netFile string, k int, bug bool) (*builtNetwork, error) {
	if netFile != "" {
		f, err := os.Open(netFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var net *yardstick.Network
		if strings.HasSuffix(netFile, ".txt") {
			net, err = yardstick.ParseNetworkText(f)
		} else {
			net, err = yardstick.DecodeNetworkJSON(f)
		}
		if err != nil {
			return nil, err
		}
		return &builtNetwork{net: net, roles: rolesOf(net)}, nil
	}
	switch topology {
	case "example":
		ex, err := yardstick.BuildExample(yardstick.ExampleOpts{BugNullRoute: bug})
		if err != nil {
			return nil, err
		}
		return &builtNetwork{net: ex.Net,
			roles: []yardstick.Role{yardstick.RoleLeaf, yardstick.RoleSpine, yardstick.RoleBorder}}, nil
	case "fattree":
		ft, err := yardstick.BuildFatTree(k)
		if err != nil {
			return nil, err
		}
		return &builtNetwork{net: ft.Net,
			roles: []yardstick.Role{yardstick.RoleToR, yardstick.RoleAgg, yardstick.RoleCore}}, nil
	case "regional":
		rg, err := yardstick.BuildRegional(yardstick.RegionalOpts{})
		if err != nil {
			return nil, err
		}
		return &builtNetwork{net: rg.Net, regional: rg,
			roles: []yardstick.Role{yardstick.RoleToR, yardstick.RoleAgg, yardstick.RoleSpine, yardstick.RoleHub}}, nil
	}
	return nil, fmt.Errorf("unknown topology %q", topology)
}

func rolesOf(net *yardstick.Network) []yardstick.Role {
	seen := map[yardstick.Role]bool{}
	var out []yardstick.Role
	for _, d := range net.Devices {
		if !seen[d.Role] {
			seen[d.Role] = true
			out = append(out, d.Role)
		}
	}
	return out
}

func parseSuite(arg string, built *builtNetwork) (yardstick.Suite, error) {
	var suite yardstick.Suite
	var rest []string
	for _, name := range strings.Split(arg, ",") {
		if strings.TrimSpace(name) == "wan" {
			if built.regional == nil {
				return nil, fmt.Errorf("the wan test needs -topology regional (it uses the generator's WAN route specification)")
			}
			suite = append(suite, yardstick.WideAreaRouteCheck{
				Prefixes:   built.regional.WANPrefixes,
				WANDevices: built.regional.WANHubs,
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
