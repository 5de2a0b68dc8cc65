// Metric federation: the coordinator's view of a fleet's metrics.
//
// A Federation holds, per worker node, the most recent metric snapshot
// scraped from that node, with every series re-labelled under a `node`
// label so different workers' series never collide. Two invariants
// drive the design:
//
//   - No double counting. Each scrape REPLACES the node's snapshot
//     wholesale — federated counters are re-exported readings, not
//     re-accumulated, so a worker that restarts (counter reset) or a
//     scrape that races a flush can never inflate a series. This is why
//     federated series live here and not in a Registry: Registry
//     counters only go up, while a node's re-exported reading may
//     legally go down.
//
//   - Staleness aging. A node that stops answering keeps its last
//     snapshot only for maxAge; after that its series vanish from
//     Snapshot output rather than freezing forever at their last
//     values. A revived node's first successful scrape makes it fresh
//     again. Under netchaos (workers killed and revived mid-run) the
//     exposed fleet view therefore converges to the live nodes.
package obs

import (
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultFederationMaxAge is how long a node's last snapshot stays
// visible after its most recent successful scrape.
const DefaultFederationMaxAge = 30 * time.Second

// Federation stores per-node metric snapshots with staleness aging.
// Safe for concurrent use; a nil *Federation is a no-op.
type Federation struct {
	maxAge time.Duration

	mu    sync.Mutex
	nodes map[string]*nodeSnapshot
}

type nodeSnapshot struct {
	metrics []Metric // node label set on each series
	at      time.Time
}

// NewFederation returns an empty federation. maxAge <= 0 selects
// DefaultFederationMaxAge.
func NewFederation(maxAge time.Duration) *Federation {
	if maxAge <= 0 {
		maxAge = DefaultFederationMaxAge
	}
	return &Federation{maxAge: maxAge, nodes: map[string]*nodeSnapshot{}}
}

// Ingest replaces node's snapshot with ms, stamping each series with a
// node="..." label (overriding any node label the worker itself set)
// and recording now as the scrape time. A series that would not render
// as valid exposition (see renderable) is dropped: Prometheus rejects a
// whole scrape for one bad line, so one worker's corrupt series must not
// take the fleet view down. Neither ms nor its label maps are retained
// or modified.
func (f *Federation) Ingest(node string, ms []Metric, now time.Time) {
	if f == nil {
		return
	}
	tagged := make([]Metric, 0, len(ms))
	for _, m := range ms {
		if !renderable(m) {
			continue
		}
		labels := make(map[string]string, len(m.Labels)+1)
		maps.Copy(labels, m.Labels)
		labels["node"] = node
		m.Labels = labels
		// Buckets alias the caller's slice but snapshots are value-built per
		// scrape and never mutated after ingest.
		tagged = append(tagged, m)
	}
	f.mu.Lock()
	f.nodes[node] = &nodeSnapshot{metrics: tagged, at: now}
	f.mu.Unlock()
}

// renderable reports whether a series writes as valid exposition: a
// metric name and label names Prometheus accepts, one of the types a
// Registry exports, and for a histogram finite ascending bucket edges,
// cumulative counts no greater than Count (the +Inf bucket) and no `le`
// label of its own (the bucket lines add it).
func renderable(m Metric) bool {
	if !validName(m.Name, true) {
		return false
	}
	for k := range m.Labels {
		if !validName(k, false) {
			return false
		}
	}
	switch m.Type {
	case "counter", "gauge":
		return true
	case "histogram":
	default:
		return false
	}
	if _, ok := m.Labels["le"]; ok {
		return false
	}
	prev := Bucket{LE: math.Inf(-1)}
	for _, b := range m.Buckets {
		if !(prev.LE < b.LE && b.LE < math.Inf(1)) || b.Count < prev.Count {
			return false
		}
		prev = b
	}
	return prev.Count <= m.Count
}

// validName reports whether s is a Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) or, with metric false, a label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func validName(s string, metric bool) bool {
	for i, c := range []byte(s) {
		switch {
		case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z':
		case c == ':' && metric:
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// Nodes returns the node names with a fresh (non-stale at now) snapshot,
// sorted.
func (f *Federation) Nodes(now time.Time) []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for name, ns := range f.nodes {
		if now.Sub(ns.at) <= f.maxAge {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every fresh node's series merged into one list,
// sorted by metric name then rendered labels. Stale nodes contribute
// nothing; they are also pruned from the store so a long-dead fleet
// doesn't pin memory.
func (f *Federation) Snapshot(now time.Time) []Metric {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	snaps := make([][]Metric, 0, len(f.nodes))
	for name, ns := range f.nodes {
		if now.Sub(ns.at) > f.maxAge {
			delete(f.nodes, name)
			continue
		}
		snaps = append(snaps, ns.metrics)
	}
	f.mu.Unlock()
	merged, _ := MergeMetrics(snaps...)
	return merged
}

// MergeMetrics merges several sorted-or-not metric snapshots into one
// list sorted by name then rendered labels. Conflicts are dropped, not
// guessed at: if two sources disagree on a family's type, the later
// source's series for that family are dropped; if two sources export
// the identical (name, labels) series, the later duplicate is dropped;
// and a series named like a histogram's own sample lines (h_bucket,
// h_sum, h_count for a histogram h) is dropped. The second return value
// counts dropped series so the caller can surface the conflict as a
// metric instead of double-reporting.
func MergeMetrics(snaps ...[]Metric) ([]Metric, int) {
	type series struct {
		m   Metric
		sig string // renderLabels(m.Labels)
	}
	types := map[string]string{}
	seen := map[string]bool{}
	dropped := 0
	var all []series
	for _, snap := range snaps {
		for _, m := range snap {
			if t, ok := types[m.Name]; ok && t != m.Type {
				dropped++
				continue
			}
			sig := renderLabels(m.Labels)
			key := m.Name + "\x00" + sig
			if seen[key] {
				dropped++
				continue
			}
			types[m.Name] = m.Type
			seen[key] = true
			all = append(all, series{m, sig})
		}
	}
	kept := all[:0]
	for _, s := range all {
		if shadowsHistogram(s.m.Name, types) {
			dropped++
			continue
		}
		kept = append(kept, s)
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].m.Name != kept[j].m.Name {
			return kept[i].m.Name < kept[j].m.Name
		}
		return kept[i].sig < kept[j].sig
	})
	out := make([]Metric, len(kept))
	for i, s := range kept {
		out[i] = s.m
	}
	return out, dropped
}

// shadowsHistogram reports whether name is one of the sample names of a
// histogram family in types.
func shadowsHistogram(name string, types map[string]string) bool {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return true
		}
	}
	return false
}
