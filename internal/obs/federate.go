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
// and recording now as the scrape time. A series that would not render
// as valid exposition (see renderable) is dropped: Prometheus rejects a
// whole scrape for one bad line, so one worker's corrupt series must not
// take the fleet view down. The input slice is not retained.
func (f *Federation) Ingest(node string, ms []Metric, now time.Time) {
	if f == nil {
		return
	}
	tagged := make([]Metric, 0, len(ms))
	for _, m := range ms {
		sig, err := InjectLabel(m.Labels, "node", node)
		if err != nil || !renderable(m) {
			continue
		}
		m.Labels = sig
		// Buckets alias the caller's slice but snapshots are value-built per
		// scrape and never mutated after ingest.
		tagged = append(tagged, m)
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

// renderable reports whether a series with parseable labels writes as
// valid exposition: a metric name Prometheus accepts, one of the types a
// Registry exports, and for a histogram ascending bucket edges ending at
// +Inf, cumulative counts, a _count equal to the +Inf bucket and no `le`
// label of its own (the bucket lines add it).
func renderable(m Metric) bool {
	if !validName(m.Name, true) {
		return false
	}
	switch m.Type {
	case "counter", "gauge":
		return true
	case "histogram":
	default:
		return false
	}
	bs := m.Buckets
	if len(bs) == 0 || !math.IsInf(bs[len(bs)-1].LE, 1) || bs[len(bs)-1].Count != m.Count {
		return false
	}
	for i := 1; i < len(bs); i++ {
		if !(bs[i-1].LE < bs[i].LE) || bs[i].Count < bs[i-1].Count {
			return false
		}
	}
	pairs, _ := ParseLabelSig(m.Labels)
	for _, p := range pairs {
		if p[0] == "le" {
			return false
		}
	}
	return true
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
// escaped) key/value pairs. Returns an error on any input that would not
// render as a valid label block — a malformed pair, an invalid or
// repeated label name, an escape other than \\, \" and \n, or a raw
// newline — so a corrupt scrape can be rejected rather than silently
// mangled.
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
		if !validName(key, false) {
			return nil, fmt.Errorf("obs: invalid label name %q in %q", key, sig)
		}
		for _, p := range pairs {
			if p[0] == key {
				return nil, fmt.Errorf("obs: duplicate label %q in %q", key, sig)
			}
		}
		j := i + eq + 2 // first byte of the value
		v := j
		for {
			if v >= len(sig) || sig[v] == '\n' {
				return nil, fmt.Errorf("obs: unterminated label value in %q", sig)
			}
			if sig[v] == '\\' {
				if v+1 >= len(sig) || !strings.ContainsRune(`\"n`, rune(sig[v+1])) {
					return nil, fmt.Errorf("obs: invalid escape in label value of %q", sig)
				}
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
// sorted. A signature ParseLabelSig rejects is an error.
func InjectLabel(sig, key, value string) (string, error) {
	pairs, err := ParseLabelSig(sig)
	if err != nil {
		return "", err
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
	return renderRawSig(pairs), nil
}

// MergeMetrics merges several sorted-or-not metric snapshots into one
// list sorted by name then label signature. Conflicts are dropped, not
// guessed at: if two sources disagree on a family's type, the later
// source's series for that family are dropped; if two sources export
// the identical (name, labels) series, the later duplicate is dropped;
// and a series named like a histogram's own sample lines (h_bucket,
// h_sum, h_count for a histogram h) is dropped. The second return value
// counts dropped series so the caller can surface the conflict as a
// metric instead of double-reporting.
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
	kept := out[:0]
	for _, m := range out {
		if shadowsHistogram(m.Name, types) {
			dropped++
			continue
		}
		kept = append(kept, m)
	}
	out = kept
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
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
