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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"yardstick"
	"yardstick/internal/topogen"
)

func main() {
	// Ctrl-C / SIGTERM abort the evaluation cleanly: the partial result
	// still prints (verdict "incomplete"), and the exit code is nonzero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command body, factored out of main so a test can drive it
// and pin its output: it returns the exit code (0 the change is safe, 2
// any other verdict or a malformed flag, as the flag package's default
// has it, 1 a missing network or an unknown test) instead of exiting.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("changecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		before   = fs.String("before", "", "pre-change network file (.json or .txt)")
		after    = fs.String("after", "", "post-change network file (.json or .txt)")
		suiteArg = fs.String("suite", "default,connected,internal", "comma-separated tests (see yardstick -h)")
		epsilon  = fs.Float64("epsilon", 0.01, "tolerated per-device coverage drop")
		drift    = fs.Float64("drift", 0.2, "tolerated relative path-universe change (negative: report drift, never flag)")
		noPaths  = fs.Bool("nopaths", false, "skip the path-universe guard (cheaper)")
		budget   = fs.Int("pathbudget", 500000, "path enumeration budget (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *before == "" || *after == "" {
		fmt.Fprintln(stderr, "changecheck: -before and -after are required")
		return 1
	}

	suite, err := yardstick.BuiltinSuite(*suiteArg)
	if err != nil {
		fmt.Fprintln(stderr, "changecheck:", err)
		return 1
	}

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
		fmt.Fprintln(stderr, "changecheck:", err)
	}

	fmt.Fprintln(stdout, "test results on the post-change state:")
	for _, r := range res.Results {
		status := "PASS"
		switch {
		case r.Errored():
			status = fmt.Sprintf("ERROR (%s)", r.Err)
		case !r.Pass():
			status = fmt.Sprintf("FAIL (%d failures)", len(r.Failures))
		}
		fmt.Fprintf(stdout, "  %-24s %6d checks  %s\n", r.Name, r.Checks, status)
	}

	fmt.Fprintln(stdout, "\ncoverage (before -> after):")
	fmt.Fprintf(stdout, "  rule (fractional):  %5.1f%% -> %5.1f%%\n",
		100*res.BeforeCoverage.RuleFractional, 100*res.AfterCoverage.RuleFractional)
	fmt.Fprintf(stdout, "  iface (fractional): %5.1f%% -> %5.1f%%\n",
		100*res.BeforeCoverage.IfaceFractional, 100*res.AfterCoverage.IfaceFractional)

	if len(res.Regressions) > 0 {
		fmt.Fprintln(stdout, "\nper-device coverage regressions:")
		yardstick.RenderRegressions(stdout, res.Regressions)
	}
	if !*noPaths {
		fmt.Fprintf(stdout, "\npath universe: %d -> %d (drift %+.1f%%)\n",
			res.PathsBefore, res.PathsAfter, 100*res.Drift)
		if res.PathsTruncated {
			fmt.Fprintln(stdout, "  (path enumeration truncated by -pathbudget)")
		}
		if res.DriftNote != "" {
			fmt.Fprintf(stdout, "  note: %s\n", res.DriftNote)
		}
	}

	fmt.Fprintf(stdout, "\nverdict: %s\n", res.Verdict)
	if res.Verdict != yardstick.VerdictSafe {
		return 2
	}
	return 0
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
