// Command yardstickd serves Yardstick over HTTP — the deployment shape
// of §7, where testing tools report coverage to a service and engineers
// read metrics and gap reports from it.
//
//	yardstickd -listen :8080 -topology regional -snapshot /var/lib/yardstick/trace.snap
//	curl -i -X POST 'localhost:8080/jobs?suite=default,internal'   # 202 + Location: /jobs/{id}; the job, done if it finished within 100ms
//	curl localhost:8080/jobs/{id}                                  # else poll until "state":"done"
//	curl localhost:8080/coverage
//	curl localhost:8080/gaps
//
// Remote testing tools report coverage by POSTing trace fragments (the
// JSON written by yardstick -trace-out or the library's
// CoverageTrace.EncodeJSON) to /trace.
//
// The daemon is hardened for long-running deployment: the HTTP server
// carries read/write/idle timeouts, request bodies are size-capped,
// handler panics answer 500 without killing the process, and SIGINT or
// SIGTERM triggers a graceful shutdown that drains in-flight requests
// up to -drain. With -snapshot, the accumulated trace is checkpointed
// to an atomic-rename snapshot file every -snapshot-interval and on
// shutdown, then recovered on the next start if the snapshot still
// matches the loaded network.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"yardstick"
	"yardstick/internal/service"
	"yardstick/internal/topogen"
)

// silentGrace is how long, once draining starts, a connection that has
// not sent a request yet may still send one.
const silentGrace = 100 * time.Millisecond

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "yardstickd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored out of main so tests can drive the
// full lifecycle: ctx cancellation plays the role of SIGINT/SIGTERM,
// and onReady (when non-nil) receives the bound listen address.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("yardstickd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "listen address")
		topology     = fs.String("topology", "", "preload a generated network: example, fattree, or regional (empty = start without one)")
		netFile      = fs.String("net", "", "preload a network from a JSON or text file (.txt = text format)")
		k            = fs.Int("k", 8, "fat-tree arity")
		snapshot     = fs.String("snapshot", "", "trace snapshot file for crash-safe persistence (empty = in-memory only)")
		snapInterval = fs.Duration("snapshot-interval", time.Minute, "how often to checkpoint the trace to -snapshot")
		drain        = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for draining in-flight requests")
		maxBody      = fs.Int64("max-body", service.DefaultMaxBody, "request body size cap in bytes")
		runTimeout   = fs.Duration("run-timeout", 0, "deadline for the evaluation work of GET /coverage, GET /gaps, PATCH /network and every POST /jobs job (0 = none; a request stays bounded by the HTTP write timeout)")
		workers      = fs.Int("workers", 1, "workers every job shards its suite across (1 = sequential)")
		pprofAddr    = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = disabled). A separate listener, so profiling never shares the service port")
		maxInflight  = fs.Int("max-inflight", 16, "cap on concurrently admitted heavy requests; excess answers 429 + Retry-After (0 = unlimited)")
		queueDepth   = fs.Int("queue-depth", 64, "async job queue depth (a full queue sheds POST /jobs with 503 + Retry-After), and how many finished jobs keep their trace and profile, besides as many coordinator shards whose trace is not fetched yet")
		jobTTL       = fs.Duration("job-ttl", time.Hour, "how long finished job results stay fetchable via GET /jobs/{id}")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil)).With("app", "yardstickd")
	// With neither flag the server starts empty and waits for PUT /network.
	var nw *yardstick.Network
	if *netFile != "" || *topology != "" {
		built, err := topogen.Load(*netFile, *topology, *k, false)
		if err != nil {
			return err
		}
		nw = built.Net
	}

	opts := []service.Option{
		service.WithLogger(logger),
		service.WithMaxBody(*maxBody),
		service.WithJobQueue(*queueDepth, *jobTTL),
		service.WithWorkers(*workers),
	}
	if *maxInflight > 0 {
		opts = append(opts, service.WithAdmission(*maxInflight))
	}
	if *runTimeout > 0 {
		opts = append(opts, service.WithRunTimeout(*runTimeout))
	}
	if *snapshot != "" {
		opts = append(opts, service.WithSnapshot(*snapshot, *snapInterval))
	}
	var srv *service.Server
	if nw != nil {
		srv = service.WithNetwork(nw, opts...)
	} else {
		srv = service.New(opts...)
	}
	restored, err := srv.Restore()
	if err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	if restored {
		logger.Info("recovered trace snapshot", "path", *snapshot)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// silent holds the connections that have not sent a request yet
	// (http.StateNew), so the drain can bound how long they hold it.
	var silent sync.Map
	hs := &http.Server{
		Handler: srv.Handler(),
		ConnState: func(c net.Conn, st http.ConnState) {
			if st == http.StateNew {
				silent.Store(c, nil)
			} else {
				silent.Delete(c)
			}
		},
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute, // server-side suite runs on large networks are slow
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}

	// Opt-in pprof on its own listener and mux: the profiling surface is
	// never reachable through the service port, and its lifetime is tied
	// to the daemon's, not to graceful HTTP drains.
	var ps *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps = &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go ps.Serve(pln)
		defer ps.Close()
		fmt.Fprintf(stdout, "pprof listening on %s\n", pln.Addr())
	}

	checkpointerDone := make(chan struct{})
	go func() {
		defer close(checkpointerDone)
		srv.RunCheckpointer(ctx)
	}()

	// The job queue's worker gets its own context, cancelled during
	// shutdown AFTER the HTTP drain: in-flight pollers keep getting
	// answers while the worker winds down, and queued work is never
	// started on a dying daemon.
	jobsCtx, jobsCancel := context.WithCancel(context.Background())
	defer jobsCancel()
	jobsDone := make(chan struct{})
	go func() {
		defer close(jobsDone)
		srv.RunJobs(jobsCtx)
	}()

	fmt.Fprintf(stdout, "yardstickd listening on %s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Shutdown order matters: flip to draining FIRST so requests racing
	// the drain get an orderly 503 + Retry-After instead of a severed
	// connection, then drain in-flight HTTP, then stop the queue's worker
	// (running jobs are cancelled, queued jobs stay queued), and only
	// after job states have settled take the final checkpoint — that is
	// what makes finished results fetchable across the restart and
	// interrupted jobs come back failed-with-reason rather than lost.
	logger.Info("shutting down", "drain", *drain)
	srv.SetDraining(true)
	// net/http's Shutdown counts a connection that never sent a request
	// active for its first 5 s, so a client that dials ahead (a pooling
	// transport, a load balancer) would hold every drain that long. Give
	// each such connection silentGrace to send one: a request that
	// arrives is read and answered (503 while draining; the server resets
	// the deadline once the header is read), and a silent one is closed.
	deadline := time.Now().Add(silentGrace)
	silent.Range(func(c, _ any) bool {
		c.(net.Conn).SetReadDeadline(deadline)
		return true
	})
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = hs.Shutdown(drainCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("drain deadline exceeded, closing remaining connections")
		hs.Close()
		err = nil
	}
	jobsCancel()
	<-jobsDone         // queue worker exited; every job state is settled
	<-checkpointerDone // periodic checkpointer exited (ctx.Done)
	if cerr := srv.Checkpoint(); cerr != nil {
		logger.Error("final checkpoint", "err", cerr)
		if err == nil {
			err = cerr
		}
	}
	<-serveErr // Serve returned http.ErrServerClosed
	return err
}
