// Command experiments regenerates the paper's evaluation figures:
//
//	-fig 6    coverage by router type for the four case-study suites (6a–6d)
//	-fig 7    coverage improvement across test-suite iterations
//	-fig 8    overhead of coverage tracking on fat-trees of growing size
//	-fig 9    time to compute each metric from the coverage trace
//	-fig churn  incremental coverage under BGP flap churn (delta vs rebuild)
//	-fig all  everything
//
// Fat-tree sizes for figures 8 and 9 are controlled with -k (comma
// separated); the defaults finish in seconds. See EXPERIMENTS.md for the
// paper-vs-measured record.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"yardstick/internal/experiments"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/topogen"
)

func main() {
	// Ctrl-C / SIGTERM stop mid-figure; completed sweep points for the
	// current figure still render before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the command body, factored out of main so a test can drive it
// and pin its output: it returns the exit code (0 on success, 1 when a
// figure fails, 2 for a malformed flag, as the flag package's default
// has it) instead of exiting.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig         = fs.String("fig", "all", "figure to regenerate: 6, 6a..6d, 7, 8, 9, mutation, churn, all")
		kArg        = fs.String("k", "4,6,8,10", "fat-tree arities for figures 8 and 9")
		pathBudget  = fs.Int("pathbudget", 500000, "path budget for figure 9 (0 = unlimited)")
		skipPaths   = fs.Bool("nopaths", false, "skip the path metric in figure 9")
		mutations   = fs.Int("mutations", 60, "faults to inject in the mutation study")
		churnEvents = fs.Int("churnevents", 12, "BGP flap events to replay in the churn study")
		subnets     = fs.Int("subnets", 1, "host subnets per ToR in the regional network (raise toward the paper's Figure 6d ToR interface numbers)")
		profile     = fs.Bool("profile", false, "print a span-tree profile of the figure runs to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	ks, err := parseKs(*kArg)
	if err != nil {
		return fail(err)
	}

	// -profile wraps each regenerated figure in a span; the evaluation
	// pipelines underneath pick the span up from the context and add
	// their stage detail to it.
	var prof *obs.Span
	if *profile {
		prof = obs.NewRoot("experiments", obs.NewRegistry())
	}
	figCtx := func(name string) (context.Context, func()) {
		if prof == nil {
			return ctx, func() {}
		}
		sp := prof.Child(name)
		return obs.ContextWithSpan(ctx, sp), sp.End
	}

	regional := func() (*topogen.Regional, error) {
		return topogen.BuildRegional(topogen.RegionalOpts{SubnetsPerToR: *subnets})
	}
	want := func(name string) bool {
		return *fig == "all" || *fig == name || (len(name) == 2 && *fig == name[:1])
	}

	if want("6a") || want("6b") || want("6c") || want("6d") || *fig == "6" {
		fctx, end := figCtx("figure6")
		rg, err := regional()
		if err != nil {
			return fail(err)
		}
		for _, panel := range experiments.Figure6All(fctx, rg) {
			if !(want(panel.Panel) || *fig == "6" || *fig == "all") {
				continue
			}
			fmt.Fprintf(stdout, "=== Figure %s: suite %v ===\n", panel.Panel, panel.Suite)
			report.RenderTable(stdout, panel.Rows)
			fmt.Fprintln(stdout)
		}
		end()
	}

	if want("7") {
		fctx, end := figCtx("figure7")
		rg, err := regional()
		if err != nil {
			return fail(err)
		}
		res := experiments.Figure7(fctx, rg)
		fmt.Fprintln(stdout, "=== Figure 7: coverage improvement with test suite iterations ===")
		rows := make([]report.Metrics, 0, len(res.Rows))
		for _, r := range res.Rows {
			rows = append(rows, r.Metrics)
		}
		report.RenderTable(stdout, rows)
		fmt.Fprintf(stdout, "\nheadline: +%.0f%% rule coverage, +%.0f%% interface coverage (paper: +89%% rules, +17%% interfaces)\n\n",
			res.Improvement.RulePct, res.Improvement.IfacePct)
		end()
	}

	if want("8") {
		fctx, end := figCtx("figure8")
		fmt.Fprintln(stdout, "=== Figure 8: overhead of coverage tracking ===")
		rows, err := experiments.Figure8(fctx, ks)
		end()
		fmt.Fprint(stdout, experiments.RenderFigure8(rows))
		fmt.Fprintln(stdout)
		if err != nil {
			return fail(err)
		}
	}

	if want("mutation") {
		fctx, end := figCtx("mutation")
		rg, err := regional()
		if err != nil {
			return fail(err)
		}
		res, err := experiments.MutationStudy(fctx, rg, *mutations, 1)
		end()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "=== Mutation study: coverage vs bug-finding ===")
		fmt.Fprint(stdout, experiments.RenderMutation(res))
		fmt.Fprintln(stdout)
	}

	if want("churn") {
		fctx, end := figCtx("churn")
		rg, err := regional()
		if err != nil {
			return fail(err)
		}
		res, err := experiments.ChurnStudy(fctx, rg, *churnEvents, 1)
		end()
		fmt.Fprintln(stdout, "=== Churn study: incremental coverage under BGP flaps ===")
		fmt.Fprint(stdout, experiments.RenderChurn(res))
		fmt.Fprintln(stdout)
		if err != nil {
			return fail(err)
		}
	}

	if want("9") {
		fctx, end := figCtx("figure9")
		fmt.Fprintln(stdout, "=== Figure 9: time to compute coverage metrics ===")
		rows, err := experiments.Figure9(fctx, ks, experiments.Figure9Opts{
			PathBudget: *pathBudget, SkipPaths: *skipPaths,
		})
		end()
		fmt.Fprint(stdout, experiments.RenderFigure9(rows))
		if err != nil {
			return fail(err)
		}
	}

	if prof != nil {
		prof.End()
		fmt.Fprintln(stderr)
		obs.WriteFlame(stderr, prof)
	}
	return 0
}

func parseKs(arg string) ([]int, error) {
	var ks []int
	for _, s := range strings.Split(arg, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		k, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad k %q", s)
		}
		ks = append(ks, k)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("no fat-tree sizes given")
	}
	return ks, nil
}
