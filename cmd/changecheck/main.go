// Command changecheck evaluates a network change the way the paper's
// testing pipeline does (§7.1): given the pre-change and post-change
// forwarding states (JSON or text network files, e.g. from netgen or an
// external simulator), it runs the test suite on the new state and
// augments the pass/fail verdict with coverage analysis — per-device
// coverage regressions and the §5.2 path-universe drift guard, which
// catches changes the suite is blind to.
//
//	changecheck -before day0.json -after day1.json -suite default,internal,connected
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"yardstick"
	"yardstick/internal/topogen"
)

func main() {
	var (
		before   = flag.String("before", "", "pre-change network file (.json or .txt)")
		after    = flag.String("after", "", "post-change network file (.json or .txt)")
		suiteArg = flag.String("suite", "default,connected,internal", "comma-separated tests (see yardstick -h)")
		epsilon  = flag.Float64("epsilon", 0.01, "tolerated per-device coverage drop")
		drift    = flag.Float64("drift", 0.2, "tolerated relative path-universe change")
		noPaths  = flag.Bool("nopaths", false, "skip the path-universe guard (cheaper)")
		budget   = flag.Int("pathbudget", 500000, "path enumeration budget (0 = unlimited)")
	)
	flag.Parse()
	if *before == "" || *after == "" {
		fmt.Fprintln(os.Stderr, "changecheck: -before and -after are required")
		os.Exit(1)
	}

	suite, err := yardstick.BuiltinSuite(*suiteArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "changecheck:", err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM abort the evaluation cleanly: the partial result
	// still prints (verdict "incomplete"), then we exit nonzero below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := yardstick.EvaluateChange(ctx, yardstick.PipelineConfig{
		Before:            loader(*before),
		After:             loader(*after),
		Suite:             suite,
		RegressionEpsilon: *epsilon,
		DriftThreshold:    *drift,
		SkipPathUniverse:  *noPaths,
		PathBudget:        *budget,
	})
	if err != nil {
		// Partial results are still worth printing: the before phase may
		// have completed even when the after phase was cut short.
		fmt.Fprintln(os.Stderr, "changecheck:", err)
	}

	fmt.Println("test results on the post-change state:")
	for _, r := range res.Results {
		status := "PASS"
		switch {
		case r.Errored():
			status = fmt.Sprintf("ERROR (%s)", r.Err)
		case !r.Pass():
			status = fmt.Sprintf("FAIL (%d failures)", len(r.Failures))
		}
		fmt.Printf("  %-24s %6d checks  %s\n", r.Name, r.Checks, status)
	}

	fmt.Println("\ncoverage (before -> after):")
	fmt.Printf("  rule (fractional):  %5.1f%% -> %5.1f%%\n",
		100*res.BeforeCoverage.RuleFractional, 100*res.AfterCoverage.RuleFractional)
	fmt.Printf("  iface (fractional): %5.1f%% -> %5.1f%%\n",
		100*res.BeforeCoverage.IfaceFractional, 100*res.AfterCoverage.IfaceFractional)

	if len(res.Regressions) > 0 {
		fmt.Println("\nper-device coverage regressions:")
		yardstick.RenderRegressions(os.Stdout, res.Regressions)
	}
	if !*noPaths {
		fmt.Printf("\npath universe: %d -> %d (drift %+.1f%%)\n",
			res.PathsBefore, res.PathsAfter, 100*res.Drift)
		if res.PathsTruncated {
			fmt.Println("  (path enumeration truncated by -pathbudget)")
		}
		if res.DriftNote != "" {
			fmt.Printf("  note: %s\n", res.DriftNote)
		}
	}

	fmt.Printf("\nverdict: %s\n", res.Verdict)
	if res.Verdict != yardstick.VerdictSafe {
		os.Exit(2)
	}
}

func loader(path string) func() (*yardstick.Network, error) {
	return func() (*yardstick.Network, error) {
		built, err := topogen.Load(path, "", 0, false)
		if err != nil {
			return nil, err
		}
		return built.Net, nil
	}
}
