// Command loadgen drives a live yardstickd with an open-loop request
// stream and writes the load proof — latency quantiles plus a full
// accepted/shed/error accounting — as JSON (the BENCH_service.json
// payload).
//
//	yardstickd -listen :8080 -topology regional -queue-depth 8 -max-inflight 2 &
//	loadgen -addr http://127.0.0.1:8080 -rps 250 -duration 10s -check -out BENCH_service.json
//
// With -check, loadgen exits 1 when the run broke the admission
// contract: any non-shed 5xx, any shed missing Retry-After, or any
// dropped connection. CI runs it at a rate well past the shedding
// threshold, so the assertion is exercised under real overload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"yardstick/internal/loadtest"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "base URL of the daemon under load")
		rps         = fs.Float64("rps", 50, "open-loop request rate")
		duration    = fs.Duration("duration", 10*time.Second, "generation window")
		suites      = fs.String("suites", "default", "comma-separated suites each job submission asks for")
		outstanding = fs.Int("max-outstanding", 256, "cap on concurrently open requests")
		timeout     = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		out         = fs.String("out", "", "write the JSON report to this file (empty = stdout)")
		check       = fs.Bool("check", false, "exit 1 when the run violates the admission contract")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := loadtest.Run(ctx, loadtest.Config{
		BaseURL:        *addr,
		RPS:            *rps,
		Duration:       *duration,
		Suites:         *suites,
		MaxOutstanding: *outstanding,
		RequestTimeout: *timeout,
	})
	if err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	} else {
		stdout.Write(data)
	}

	fmt.Fprintf(stderr, "launched=%d accepted=%d shed=%d 5xx=%d transport=%d local_drops=%d accepted_p99=%.4fs\n",
		rep.Totals.Launched, rep.Totals.Accepted, rep.Totals.Shed,
		rep.Totals.Errors5xx, rep.Totals.TransportErrors, rep.Totals.LocalDrops, rep.Accepted.P99)

	if *check {
		if v := rep.Violations(); len(v) != 0 {
			for _, msg := range v {
				fmt.Fprintln(stderr, "contract violation:", msg)
			}
			return fmt.Errorf("%d admission-contract violations", len(v))
		}
		fmt.Fprintln(stderr, "admission contract held")
	}
	return nil
}
