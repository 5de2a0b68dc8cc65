package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"yardstick/internal/obs"
)

// Middleware wraps an http.Handler with a cross-cutting concern.
type Middleware func(http.Handler) http.Handler

// Chain applies middleware outermost-first: Chain(h, a, b) serves
// requests through a, then b, then h.
func Chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// reqIDKey carries the request id through the request context.
type reqIDKey struct{}

// RequestID returns the id LogRequests assigned to this request ("" when
// the middleware is not in the chain).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// newRequestID returns a 16-hex-char random id. Randomness failures
// degrade to a fixed id rather than failing the request.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Recover isolates handler panics: the stack is logged, the client gets
// a 500 (when the response has not started), and the server keeps
// serving. A panicking coverage computation must not take down a daemon
// holding a day of accumulated trace state.
func Recover(logger *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if rec := recover(); rec != nil {
					if rec == http.ErrAbortHandler {
						panic(rec)
					}
					logger.Error("panic serving request",
						"id", RequestID(r.Context()),
						"method", r.Method,
						"path", r.URL.Path,
						"panic", rec,
						"stack", string(debug.Stack()))
					httpError(w, http.StatusInternalServerError, "internal error")
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// LimitBody caps request-body size with http.MaxBytesReader, so a
// misbehaving reporter cannot exhaust server memory. Handlers that read
// past the limit see a *http.MaxBytesError and answer 413.
func LimitBody(n int64) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(w, r.Body, n)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// statusRecorder captures the response code for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// LogRequests assigns each request an id (echoed in X-Request-Id and
// retrievable with RequestID) and logs one structured line per request:
// id, method, path, status, duration. It belongs OUTERMOST in the chain
// — the log line is emitted in a defer, so a request that panics through
// an inner Recover still gets its line, with the 500 Recover wrote.
func LogRequests(logger *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := newRequestID()
			w.Header().Set("X-Request-Id", id)
			r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
			sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			start := time.Now()
			defer func() {
				attrs := []any{
					"id", id,
					"method", r.Method,
					"path", r.URL.Path,
					"status", sr.status,
					"dur", time.Since(start).Round(time.Microsecond),
				}
				// Requests belonging to a distributed run (the coordinator
				// sends X-Run-Id on every dispatch) log the run ID, so one
				// grep joins a run's lines across the fleet.
				if run := r.Header.Get("X-Run-Id"); run != "" {
					attrs = append(attrs, "run", run)
				}
				logger.Info("request", attrs...)
			}()
			next.ServeHTTP(sr, r)
		})
	}
}

// Instrument records per-route request counts and latency histograms
// into reg:
//
//	yardstick_http_requests_total{route,status}
//	yardstick_http_request_duration_seconds{route}
//
// The route label is the known endpoint the path resolves to (never the
// raw path — client-controlled label values would blow up the series
// cardinality).
func Instrument(reg *obs.Registry) Middleware {
	reg.SetHelp("yardstick_http_requests_total", "HTTP requests served, by route and status")
	reg.SetHelp("yardstick_http_request_duration_seconds", "HTTP request latency, by route")
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route := routeLabel(r.URL.Path)
			sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			start := time.Now()
			next.ServeHTTP(sr, r)
			reg.Counter("yardstick_http_requests_total", "route", route, "status", strconv.Itoa(sr.status)).Inc()
			reg.Histogram("yardstick_http_request_duration_seconds", obs.DefBuckets, "route", route).ObserveSince(start)
		})
	}
}

// routeLabel maps a request path to a bounded route label set.
func routeLabel(path string) string {
	switch path {
	case "/network", "/trace", "/jobs", "/coverage", "/gaps",
		"/healthz", "/readyz", "/metrics", "/stats":
		return path
	}
	// Job IDs are client-visible path segments; collapse them so the
	// route label set stays bounded.
	if strings.HasPrefix(path, "/jobs/") {
		return "/jobs"
	}
	return "other"
}
