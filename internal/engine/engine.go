// Package engine is the one object every front end drives: the paper's
// two phases — tests mark a trace, metrics are computed from (network,
// trace) (§5) — over one pair of values, with no transport in it. The
// daemon, the CLI, the change check (EvaluateChange, one Engine per
// state) and the fleet coordinator are doors onto an Engine; they differ
// in how a request arrives and how the answer is encoded.
//
// An Engine owns the canonical network, the accumulated trace, the
// coverage view maintained over the two, the cached fingerprint, the
// lazily built pool of replica clones and the baseline of the canonical
// BDD manager's counters; they change together, through the methods
// here. Every method that does symbolic work is one guarded stage (see
// stage), which is where the degradation rules live — DESIGN.md §2.15
// lists what each aborted call leaves behind. An Engine is not safe for
// concurrent use: it shares the network's single-threaded BDD manager,
// and its owner serializes calls. A different network is a new Engine.
package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"yardstick/internal/bdd"
	"yardstick/internal/core"
	"yardstick/internal/delta"
	"yardstick/internal/netmodel"
	"yardstick/internal/obs"
	"yardstick/internal/report"
	"yardstick/internal/sharded"
	"yardstick/internal/testkit"
)

// Registry metric names of the coverage view and the canonical manager.
const (
	MetricCoverageReads          = "yardstick_coverage_reads_total"
	MetricCoverageRefreshDevices = "yardstick_coverage_refresh_devices_total"
	MetricEngineNodes            = "yardstick_engine_nodes"
	MetricEngineUniqueSlots      = "yardstick_engine_unique_slots"
	MetricEngineUniqueLoad       = "yardstick_engine_unique_load"
	MetricEngineCacheSlots       = "yardstick_engine_cache_slots"
	MetricEngineSatFracEntries   = "yardstick_engine_satfrac_entries"
)

// ErrNoNetwork is returned by every method that needs a network when the
// engine was created without one.
var ErrNoNetwork = errors.New("no network loaded")

// Aborted reports whether err is a stage cut short — a tripped budget or
// a context that ended — rather than a fault in what was asked.
func Aborted(err error) bool {
	return errors.Is(err, bdd.ErrBudgetExceeded) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Config sizes an Engine.
type Config struct {
	// Workers is how many replica clones every Run shards the suite
	// across; with Workers <= 1 every run is sequential.
	Workers int
	// Limits is the BDD budget of each stage (zero: unlimited), armed
	// afresh on the canonical manager when a stage starts and on every
	// shard of a parallel run (MaxOps split across the workers).
	Limits bdd.Limits
}

// Engine is one network, its accumulated trace and everything derived
// from the pair.
type Engine struct {
	cfg   Config
	net   *netmodel.Network
	trace *core.Trace
	view  *core.Coverage  // nil without a network
	fp    string          // "" until first needed
	pool  *sharded.Engine // nil until the first parallel run
	base  bdd.Stats       // canonical counters already settled by SettleStats
}

// New returns an engine over net with an empty trace. A nil net is an
// engine nothing can be recorded into: a daemon before its first PUT.
func New(net *netmodel.Network, cfg Config) *Engine {
	e := &Engine{cfg: cfg, net: net}
	if net != nil {
		net.ComputeMatchSets()
	}
	e.ResetTrace()
	return e
}

// ResetTrace drops the accumulated trace and starts a new view over the
// empty one, so no view outlives the trace it was derived from.
func (e *Engine) ResetTrace() {
	e.trace, e.view = core.NewTrace(), nil
	if e.net != nil {
		e.view = core.NewCoverage(e.net, e.trace)
	}
}

// Net returns the canonical network (nil when none is loaded).
func (e *Engine) Net() *netmodel.Network { return e.net }

// Trace returns the accumulated trace.
func (e *Engine) Trace() *core.Trace { return e.trace }

// Coverage returns the maintained view, for reads that are not a stage
// of their own (nil without a network).
func (e *Engine) Coverage() *core.Coverage { return e.view }

// Fingerprint returns the network's fingerprint, hashing the network on
// first use only ("" without a network).
func (e *Engine) Fingerprint() string {
	if e.fp == "" && e.net != nil {
		e.fp = core.Fingerprint(e.net)
	}
	return e.fp
}

// stage runs fn as one guarded stage: under a child span called name
// (the context's own span when name is ""), with the configured budget
// armed, the context watched by the canonical space, the work under
// bdd.Guard and the space's counter movement settled onto the span. It
// returns an error when the budget tripped — also inside a test the suite
// runner isolated, where the poisoned manager is the evidence — or the
// context ended. The space polls the context only every 1024 operations,
// so a context that has already ended is refused before anything runs (a
// short stage would finish under it unseen) and one that ends meanwhile
// is checked again afterwards.
func (e *Engine) stage(ctx context.Context, name string, fn func(ctx context.Context, sp *obs.Span)) error {
	if e.net == nil {
		return ErrNoNetwork
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := obs.SpanFromContext(ctx)
	if name != "" {
		sp = sp.Child(name)
		defer sp.EndStage()
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	space := e.net.Space
	if e.cfg.Limits != (bdd.Limits{}) {
		// SetLimits restarts the op counter and clears the poison a
		// previous stage's trip left.
		space.SetLimits(e.cfg.Limits)
	}
	base := space.EngineStats()
	defer func() { space.FlushStats(sp, nil, base) }()
	defer space.WatchContext(ctx)()
	err := bdd.Guard(func() { fn(ctx, sp) })
	if err == nil {
		err = space.Manager().BudgetErr()
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}

// Run evaluates suite against the network, recording coverage into into
// (nil: the accumulated trace; otherwise a trace in the canonical space),
// sequentially or — when Config.Workers is above one — sharded over
// replica clones that are built on first use and kept until a Patch.
// Results and coverage are identical either way. An aborted run keeps
// what it recorded and returns the results that completed.
func (e *Engine) Run(ctx context.Context, stage string, suite testkit.Suite, into *core.Trace) ([]testkit.Result, error) {
	if into == nil {
		into = e.trace
	}
	var (
		results []testkit.Result
		rerr    error
	)
	err := e.stage(ctx, stage, func(ctx context.Context, sp *obs.Span) {
		sp.Set("workers", int64(max(e.cfg.Workers, 1)))
		if e.cfg.Workers <= 1 {
			results = suite.Run(ctx, e.net, into)
			return
		}
		if e.pool == nil {
			if e.pool, rerr = sharded.New(ctx, e.net, sharded.Config{Workers: e.cfg.Workers, Limits: e.cfg.Limits}); rerr != nil {
				rerr = fmt.Errorf("building worker pool: %w", rerr)
				return
			}
		}
		var res *sharded.Result
		res, rerr = e.pool.Run(ctx, suite)
		results = res.Results
		into.Merge(res.Trace)
	})
	if rerr != nil {
		err = rerr
	}
	return results, err
}

// MergeTiming is how long Merge spent decoding a fragment into the
// canonical space and folding it into the trace.
type MergeTiming struct{ Decode, Merge time.Duration }

// Merge decodes one trace fragment — a YSS1 arena or cube JSON, sniffed —
// and folds it into the accumulated trace, under codec.decode and
// transfer child spans. An arena's checksum, format and fingerprint are
// checked before any BDD work; one recorded against another network is
// core.ErrSnapshotMismatch.
func (e *Engine) Merge(ctx context.Context, data []byte) (MergeTiming, error) {
	var (
		t    MergeTiming
		derr error
	)
	err := e.stage(ctx, "", func(_ context.Context, sp *obs.Span) {
		fp := ""
		if core.IsSnapshotArena(data) {
			fp = e.Fingerprint() // cube JSON carries none to check
		}
		var frag *core.Trace
		start := time.Now()
		func() {
			defer sp.Child("codec.decode").End()
			frag, derr = core.DecodeFragment(data, e.net, fp)
		}()
		t.Decode = time.Since(start)
		if derr != nil {
			return
		}
		start = time.Now()
		defer sp.Child("transfer").End()
		e.trace.Merge(frag)
		t.Merge = time.Since(start)
	})
	if derr != nil {
		err = derr
	}
	return t, err
}

// MergeTrace folds a trace that already lives in the canonical space (a
// job's private fragment, a coordinator's result) into the accumulated
// trace.
func (e *Engine) MergeTrace(ctx context.Context, t *core.Trace) error {
	return e.stage(ctx, "", func(context.Context, *obs.Span) { e.trace.Merge(t) })
}

// Patch applies one rule-level delta document in place (internal/delta):
// the touched devices are re-derived and the trace and view carried onto
// the new rule universe. Errors before the commit — a stale base
// (*delta.BaseMismatchError), an invalid document, an aborted evaluation
// — leave everything untouched and return no Applied. After the commit
// the Applied is always returned (with delta.ErrDriftIncomplete when only
// its drift section was cut short), the new fingerprint is held, and the
// replica pool — clones of the network as it was — is dropped.
func (e *Engine) Patch(ctx context.Context, doc delta.Document) (*delta.Applied, error) {
	var (
		applied *delta.Applied
		aerr    error
	)
	err := e.stage(ctx, "", func(context.Context, *obs.Span) {
		applied, aerr = delta.ResumeEngine(e.view, e.Fingerprint()).Apply(doc)
	})
	if applied == nil {
		if aerr != nil {
			err = aerr
		}
		return nil, err
	}
	e.fp, e.pool = applied.Fingerprint, nil
	return applied, aerr
}

// View brings the coverage view up to date — only devices whose marks or
// rules changed since the last read are re-derived — and runs fold over
// it. The stage's span carries how many devices and rules the refresh
// took, and its registry counts the read as clean or refreshed. After an
// abort the unfinished devices stay dirty and the next read derives them.
func (e *Engine) View(ctx context.Context, stage string, fold func(*core.Coverage)) error {
	return e.stage(ctx, stage, func(_ context.Context, sp *obs.Span) {
		st := e.view.Refresh()
		sp.Set("devices", int64(st.Devices))
		sp.Set("rules", int64(st.Rules))
		result := "clean"
		if st.Devices > 0 {
			result = "refreshed"
		}
		sp.Registry().Counter(MetricCoverageReads, "result", result).Inc()
		sp.Registry().Counter(MetricCoverageRefreshDevices).Add(uint64(st.Devices))
		fold(e.view)
	})
}

// Table is the View every front end prints: one row per role, in the
// order given, then the whole network under the label total.
func (e *Engine) Table(ctx context.Context, stage string, roles []netmodel.Role, total string) ([]report.Metrics, error) {
	var rows []report.Metrics
	err := e.View(ctx, stage, func(cov *core.Coverage) {
		rows = append(report.ByRole(cov, roles), report.Total(cov, total))
	})
	return rows, err
}

// EncodeFragment encodes t, a trace in the canonical space, for the wire:
// the checksummed YSS1 arena stamped with the network's fingerprint, or
// exact-cube JSON. Set extraction is BDD-manager work, so it is a stage.
func (e *Engine) EncodeFragment(ctx context.Context, t *core.Trace, arena bool) ([]byte, error) {
	var (
		buf  bytes.Buffer
		eerr error
	)
	encode := func(context.Context, *obs.Span) {
		if arena {
			eerr = core.EncodeFragmentArena(&buf, e.net, e.Fingerprint(), t)
		} else {
			eerr = t.EncodeJSON(&buf)
		}
	}
	var err error
	if e.net == nil && !arena {
		encode(ctx, nil) // nothing can have been recorded: the empty trace
	} else {
		err = e.stage(ctx, "", encode)
	}
	if err = errors.Join(err, eerr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Snapshot writes the accumulated trace to path as a YSS1 arena under
// the cached fingerprint (atomic rename; core.SaveSnapshotArena). The
// sets are extracted into a private manager, so no budget of the
// canonical one is charged and there is nothing to guard.
func (e *Engine) Snapshot(path string) error {
	if e.net == nil {
		return ErrNoNetwork
	}
	return core.SaveSnapshotArena(path, e.net, e.Fingerprint(), e.trace)
}

// Restore merges the snapshot at path into the accumulated trace and
// reports whether the file was in the legacy JSON format. The error is
// core.LoadSnapshot's: fs.ErrNotExist without a file,
// core.ErrSnapshotMismatch for a snapshot of another network.
func (e *Engine) Restore(ctx context.Context, path string) (legacy bool, err error) {
	var lerr error
	err = e.stage(ctx, "", func(context.Context, *obs.Span) {
		var snap *core.Trace
		if snap, legacy, lerr = core.LoadSnapshot(path, e.net, e.Fingerprint()); lerr == nil {
			e.trace.Merge(snap)
		}
	})
	if lerr != nil {
		err = lerr
	}
	return legacy, err
}

// SettleStats moves the canonical manager's counter movement since the
// last call into reg and sets its gauges (nodes, unique-table slots and
// load, op-cache slots, SatFraction memo entries): the one path by which
// that manager reaches a registry, so nothing is counted twice (replica
// managers flush themselves, per shard).
func (e *Engine) SettleStats(reg *obs.Registry) {
	if e.net == nil || reg == nil {
		return
	}
	e.base = e.net.Space.FlushStats(nil, reg, e.base)
	reg.Gauge(MetricEngineNodes).Set(float64(e.base.Nodes))
	reg.Gauge(MetricEngineUniqueSlots).Set(float64(e.base.UniqueSlots))
	reg.Gauge(MetricEngineUniqueLoad).Set(e.base.UniqueLoad)
	reg.Gauge(MetricEngineCacheSlots).Set(float64(e.base.CacheSlots))
	reg.Gauge(MetricEngineSatFracEntries).Set(float64(e.base.SatFracEntries))
}
