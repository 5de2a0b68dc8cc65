// Prometheus text exposition, hand-rolled (format v0.0.4). The output
// is deterministic: families sort by name, series by rendered labels,
// histogram buckets by ascending upper edge — so a golden test can pin
// the exact bytes and a scrape diff is meaningful.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type header value for WritePrometheus
// output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes every metric in the Prometheus text exposition
// format. Each family gets HELP (the help text, or the name when unset)
// and TYPE lines; histogram series expand into cumulative _bucket
// samples plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	return WritePrometheusMetrics(w, r.Help(), r.Snapshot())
}

// WritePrometheusMetrics writes an explicit metric list (sorted by name
// then rendered labels, as Snapshot, Federation.Snapshot, and
// MergeMetrics all produce) in the Prometheus text format with the
// given HELP texts. This is the exposition path for merged fleet views,
// where the series come from several sources rather than one live
// registry. It is where label values are escaped and where a
// histogram's le="+Inf" bucket (its Count) is written.
func WritePrometheusMetrics(w io.Writer, help map[string]string, ms []Metric) error {
	bw := bufio.NewWriter(w)
	last := ""
	for _, m := range ms {
		if m.Name != last {
			h := help[m.Name]
			if h == "" {
				h = m.Name
			}
			fmt.Fprintf(bw, "# HELP %s %s\n", m.Name, escapeHelp(h))
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.Name, m.Type)
			last = m.Name
		}
		sig := renderLabels(m.Labels)
		switch m.Type {
		case "histogram":
			for _, b := range m.Buckets {
				fmt.Fprintf(bw, "%s_bucket{%s} %d\n", m.Name, joinSig(sig, `le="`+formatValue(b.LE)+`"`), b.Count)
			}
			fmt.Fprintf(bw, "%s_bucket{%s} %d\n", m.Name, joinSig(sig, `le="+Inf"`), m.Count)
			fmt.Fprintf(bw, "%s_sum%s %s\n", m.Name, braceSig(sig), formatValue(m.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", m.Name, braceSig(sig), m.Count)
		case "counter":
			// Counters are integral; emit them without float formatting.
			fmt.Fprintf(bw, "%s%s %d\n", m.Name, braceSig(sig), uint64(m.Value))
		default:
			fmt.Fprintf(bw, "%s%s %s\n", m.Name, braceSig(sig), formatValue(m.Value))
		}
	}
	return bw.Flush()
}

// labelEscaper escapes a label value per the text format: backslash,
// double quote, and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels renders a label set as the `k="v",…` body of a label
// block, keys sorted and values escaped — the one place a label value
// is escaped. The result also keys series, in the registry and in
// MergeMetrics, since it is unique per label set.
func renderLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, labels[k])
		b.WriteByte('"')
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are legal
// in help).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// joinSig appends extra to a (possibly empty) label signature.
func joinSig(sig, extra string) string {
	if sig == "" {
		return extra
	}
	return sig + "," + extra
}

// braceSig wraps a non-empty signature in braces.
func braceSig(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

// formatValue renders a float sample value or bucket edge: shortest
// round-trip float, or the text format's +Inf, -Inf and NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
