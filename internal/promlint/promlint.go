// Package promlint validates Prometheus text exposition (format 0.0.4)
// well-formedness: the checks a scraper would fail on, plus the
// histogram invariants a subtly broken exporter gets wrong first. It
// exists so CI can scrape a briefly started daemon and fail on malformed
// output instead of discovering it in a production Prometheus.
package promlint

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Issue is one lint finding, anchored to a 1-based line number (0 for
// whole-document findings).
type Issue struct {
	Line int
	Msg  string
}

func (i Issue) String() string {
	if i.Line == 0 {
		return i.Msg
	}
	return fmt.Sprintf("line %d: %s", i.Line, i.Msg)
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	validTypes   = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
)

// sample is one parsed sample line.
type sample struct {
	line   int
	name   string
	labels map[string]string
	value  float64
}

// Lint reads an exposition document and returns every issue found (nil
// for a clean document).
func Lint(r io.Reader) []Issue {
	var issues []Issue
	addf := func(line int, format string, args ...any) {
		issues = append(issues, Issue{Line: line, Msg: fmt.Sprintf(format, args...)})
	}

	typeOf := map[string]string{}  // family -> declared type
	typeLine := map[string]int{}   // family -> TYPE declaration line
	helpSeen := map[string]bool{}  // family -> HELP seen
	sampleSeen := map[string]int{} // family -> first sample line
	closed := map[string]bool{}    // family group ended (another family started)
	seriesSeen := map[string]int{} // name + canonical labels -> line (duplicates)
	var samples []sample
	lastFamily := ""

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				if len(fields) < 3 {
					addf(n, "%s comment without a metric name", fields[1])
					continue
				}
				name := fields[2]
				if !metricNameRe.MatchString(name) {
					addf(n, "invalid metric name %q in %s", name, fields[1])
					continue
				}
				switch fields[1] {
				case "HELP":
					if helpSeen[name] {
						addf(n, "duplicate HELP for %s", name)
					}
					helpSeen[name] = true
					if len(fields) >= 4 && strings.Contains(strings.ReplaceAll(fields[3], `\\`, ``), `\`) &&
						!validHelpEscapes(fields[3]) {
						addf(n, "invalid escape in HELP text for %s", name)
					}
				case "TYPE":
					if len(fields) < 4 {
						addf(n, "TYPE for %s without a type", name)
						continue
					}
					typ := fields[3]
					if !validTypes[typ] {
						addf(n, "unknown type %q for %s", typ, name)
					}
					if _, dup := typeOf[name]; dup {
						addf(n, "duplicate TYPE for %s", name)
					}
					if first, ok := sampleSeen[name]; ok {
						addf(n, "TYPE for %s after its first sample (line %d)", name, first)
					}
					typeOf[name] = typ
					typeLine[name] = n
				}
			}
			continue // other comments are legal
		}

		s, err := parseSample(line)
		if err != nil {
			addf(n, "%v", err)
			continue
		}
		s.line = n
		fam := familyOf(s.name, typeOf)
		if fam != lastFamily {
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			if closed[fam] {
				addf(n, "samples for %s are not contiguous (family reopened)", fam)
			}
			lastFamily = fam
		}
		if _, ok := sampleSeen[fam]; !ok {
			sampleSeen[fam] = n
		}
		key := s.name + "{" + canonicalLabels(s.labels) + "}"
		if prev, dup := seriesSeen[key]; dup {
			addf(n, "duplicate sample %s (first at line %d)", key, prev)
		}
		seriesSeen[key] = n
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		addf(0, "read: %v", err)
	}

	issues = append(issues, checkHistograms(typeOf, samples)...)
	return issues
}

// familyOf strips the _bucket/_sum/_count suffix when the base name is a
// declared histogram (or summary, for _sum/_count).
func familyOf(name string, typeOf map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		switch typeOf[base] {
		case "histogram":
			return base
		case "summary":
			if suf != "_bucket" {
				return base
			}
		}
	}
	return name
}

// parseSample parses `name{labels} value [timestamp]`.
func parseSample(line string) (sample, error) {
	s := sample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("sample line without a value: %q", line)
	}
	s.name = line[:i]
	if !metricNameRe.MatchString(s.name) {
		return s, fmt.Errorf("invalid metric name %q", s.name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value (and optional timestamp) after %q", s.name)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("invalid sample value %q: %v", fields[0], err)
	}
	s.value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("invalid timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels parses a `{k="v",...}` block starting at text[0] == '{',
// returning the index just past the closing brace.
func parseLabels(text string, out map[string]string) (int, error) {
	i := 1
	for {
		// Tolerate `{}` and a trailing comma before `}`.
		if i < len(text) && text[i] == '}' {
			return i + 1, nil
		}
		j := strings.IndexByte(text[i:], '=')
		if j < 0 {
			return 0, fmt.Errorf("unterminated label block")
		}
		name := text[i : i+j]
		if !labelNameRe.MatchString(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i += j + 1
		if i >= len(text) || text[i] != '"' {
			return 0, fmt.Errorf("label %s value is not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(text) {
				return 0, fmt.Errorf("unterminated value for label %s", name)
			}
			c := text[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(text) {
					return 0, fmt.Errorf("dangling escape in label %s", name)
				}
				switch text[i+1] {
				case '\\', '"', 'n':
				default:
					return 0, fmt.Errorf("invalid escape \\%c in label %s", text[i+1], name)
				}
				val.WriteByte(text[i+1])
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[name]; dup {
			return 0, fmt.Errorf("duplicate label %s", name)
		}
		out[name] = val.String()
		if i < len(text) && text[i] == ',' {
			i++
			continue
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("expected ',' or '}' after label %s", name)
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func canonicalLabels(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, m[k])
	}
	return b.String()
}

func validHelpEscapes(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			continue
		}
		if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != 'n') {
			return false
		}
		i++
	}
	return true
}

// checkHistograms verifies, per histogram series (samples grouped by
// non-le labels): +Inf bucket present, bucket counts non-decreasing by
// ascending le, +Inf equals _count, and _sum/_count present.
func checkHistograms(typeOf map[string]string, samples []sample) []Issue {
	var issues []Issue
	type hist struct {
		buckets  []sample // _bucket samples
		sum, cnt *sample
	}
	groups := map[string]*hist{}
	var order []string
	get := func(key string) *hist {
		h, ok := groups[key]
		if !ok {
			h = &hist{}
			groups[key] = h
			order = append(order, key)
		}
		return h
	}
	for i := range samples {
		s := samples[i]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.name, suf)
			if base == s.name || typeOf[base] != "histogram" {
				continue
			}
			labels := map[string]string{}
			for k, v := range s.labels {
				if k != "le" {
					labels[k] = v
				}
			}
			key := base + "{" + canonicalLabels(labels) + "}"
			h := get(key)
			switch suf {
			case "_bucket":
				if _, ok := s.labels["le"]; !ok {
					issues = append(issues, Issue{s.line, fmt.Sprintf("%s_bucket without an le label", base)})
					continue
				}
				h.buckets = append(h.buckets, s)
			case "_sum":
				h.sum = &samples[i]
			case "_count":
				h.cnt = &samples[i]
			}
		}
	}
	for _, key := range order {
		h := groups[key]
		if len(h.buckets) == 0 {
			issues = append(issues, Issue{0, fmt.Sprintf("histogram %s has no buckets", key)})
			continue
		}
		type edge struct {
			le float64
			s  sample
		}
		edges := make([]edge, 0, len(h.buckets))
		bad := false
		for _, b := range h.buckets {
			le, err := parseValue(b.labels["le"])
			if err != nil {
				issues = append(issues, Issue{b.line, fmt.Sprintf("histogram %s: invalid le %q", key, b.labels["le"])})
				bad = true
				continue
			}
			edges = append(edges, edge{le, b})
		}
		if bad {
			continue
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].le < edges[j].le })
		var inf *edge
		for i := range edges {
			if i > 0 && edges[i].s.value < edges[i-1].s.value {
				issues = append(issues, Issue{edges[i].s.line,
					fmt.Sprintf("histogram %s: bucket le=%q count %v below previous bucket %v",
						key, edges[i].s.labels["le"], edges[i].s.value, edges[i-1].s.value)})
			}
			if math.IsInf(edges[i].le, 1) {
				inf = &edges[i]
			}
		}
		if inf == nil {
			issues = append(issues, Issue{edges[len(edges)-1].s.line, fmt.Sprintf("histogram %s missing the +Inf bucket", key)})
			continue
		}
		if h.cnt == nil {
			issues = append(issues, Issue{0, fmt.Sprintf("histogram %s missing _count", key)})
		} else if h.cnt.value != inf.s.value {
			issues = append(issues, Issue{h.cnt.line,
				fmt.Sprintf("histogram %s: _count %v != +Inf bucket %v", key, h.cnt.value, inf.s.value)})
		}
		if h.sum == nil {
			issues = append(issues, Issue{0, fmt.Sprintf("histogram %s missing _sum", key)})
		}
	}
	return issues
}
