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
	"fmt"
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
	metrics []Metric // node label already injected, sorted
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
// and recording now as the scrape time. The input slice is not
// retained.
func (f *Federation) Ingest(node string, ms []Metric, now time.Time) {
	if f == nil {
		return
	}
	tagged := make([]Metric, len(ms))
	for i, m := range ms {
		m.Labels = InjectLabel(m.Labels, "node", node)
		// Buckets alias the caller's slice but snapshots are value-built per
		// scrape and never mutated after ingest.
		tagged[i] = m
	}
	sort.Slice(tagged, func(i, j int) bool {
		if tagged[i].Name != tagged[j].Name {
			return tagged[i].Name < tagged[j].Name
		}
		return tagged[i].Labels < tagged[j].Labels
	})
	f.mu.Lock()
	f.nodes[node] = &nodeSnapshot{metrics: tagged, at: now}
	f.mu.Unlock()
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
// sorted by metric name then label signature. Stale nodes contribute
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

// Label signature surgery ----------------------------------------------
//
// Rendered signatures are the registry's canonical `k="v",k2="v2"` form
// with Prometheus escaping applied. The federation needs to add one
// label to an already-rendered signature without a lossy
// unescape/re-escape round trip, so these helpers parse the raw escaped
// pairs and splice in place.

// ParseLabelSig splits a rendered signature into its raw (still
// escaped) key/value pairs. Returns an error on any malformed input so
// a corrupt scrape can be rejected rather than silently mangled.
func ParseLabelSig(sig string) ([][2]string, error) {
	if sig == "" {
		return nil, nil
	}
	var pairs [][2]string
	i := 0
	for i < len(sig) {
		eq := strings.Index(sig[i:], `="`)
		if eq < 0 {
			return nil, fmt.Errorf("obs: malformed label signature %q", sig)
		}
		key := sig[i : i+eq]
		if key == "" {
			return nil, fmt.Errorf("obs: empty label name in %q", sig)
		}
		j := i + eq + 2 // first byte of the value
		v := j
		for {
			if v >= len(sig) {
				return nil, fmt.Errorf("obs: unterminated label value in %q", sig)
			}
			if sig[v] == '\\' {
				v += 2
				continue
			}
			if sig[v] == '"' {
				break
			}
			v++
		}
		pairs = append(pairs, [2]string{key, sig[j:v]})
		i = v + 1
		if i < len(sig) {
			if sig[i] != ',' {
				return nil, fmt.Errorf("obs: malformed label signature %q", sig)
			}
			i++
		}
	}
	return pairs, nil
}

// renderRawSig renders raw (already escaped) pairs back into the
// canonical sorted signature.
func renderRawSig(pairs [][2]string) string {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p[0])
		b.WriteString(`="`)
		b.WriteString(p[1])
		b.WriteByte('"')
	}
	return b.String()
}

// InjectLabel returns sig with key set to value (escaped), replacing an
// existing key of the same name and keeping the signature canonically
// sorted. A signature that fails to parse is replaced outright by the
// single injected pair — the node label must win even over corrupt
// input, or two nodes' broken series could collide.
func InjectLabel(sig, key, value string) string {
	pairs, err := ParseLabelSig(sig)
	if err != nil {
		pairs = nil
	}
	esc := escapeLabel(value)
	replaced := false
	for i := range pairs {
		if pairs[i][0] == key {
			pairs[i][1] = esc
			replaced = true
		}
	}
	if !replaced {
		pairs = append(pairs, [2]string{key, esc})
	}
	return renderRawSig(pairs)
}

// MergeMetrics merges several sorted-or-not metric snapshots into one
// list sorted by name then label signature. Conflicts are dropped, not
// guessed at: if two sources disagree on a family's type, the later
// source's series for that family are dropped; if two sources export
// the identical (name, labels) series, the later duplicate is dropped.
// The second return value counts dropped series so the caller can
// surface the conflict as a metric instead of double-reporting.
func MergeMetrics(snaps ...[]Metric) ([]Metric, int) {
	types := map[string]string{}
	seen := map[string]bool{}
	dropped := 0
	var out []Metric
	for _, snap := range snaps {
		for _, m := range snap {
			if t, ok := types[m.Name]; ok && t != m.Type {
				dropped++
				continue
			}
			key := m.Name + "\x00" + m.Labels
			if seen[key] {
				dropped++
				continue
			}
			types[m.Name] = m.Type
			seen[key] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out, dropped
}
