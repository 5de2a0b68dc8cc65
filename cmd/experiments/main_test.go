package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata from the command's output")

// figures are the figures, each with the golden that pins its stdout.
// A figure that also prints timings names the columns its golden keeps:
// the test cuts the rest, and every line outside the table, from stdout.
var figures = []struct {
	golden string
	args   string
	keep   []string
}{
	{"fig6", "-fig 6", nil},
	{"fig7", "-fig 7", nil},
	{"mutation", "-fig mutation -mutations 50", nil},
	{"fig8", "-fig 8 -k 4,6", []string{"k", "routers", "test"}},
	{"fig9", "-fig 9 -k 4,6", []string{"k", "routers", "metric", "paths", "complete"}},
	{"churn", "-fig churn", []string{"step", "event", "rules", "ops", "rule-cov", "cfg-cov", "decay", "exact"}},
}

// TestGolden pins the stdout of every figure, timings cut. Run with
// -update after an intended change to a figure, and review the diff
// under testdata with the EXPERIMENTS.md tables that TestExperimentsDoc
// holds to them.
func TestGolden(t *testing.T) {
	for _, f := range figures {
		t.Run(f.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), strings.Fields(f.args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr.String())
			}
			got := stdout.Bytes()
			if f.keep != nil {
				got = keepColumns(t, stdout.String(), f.keep)
			}
			path := filepath.Join("testdata", f.golden+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// keepColumns returns the title line of out and the keep columns of the
// table below it (a header line naming the columns, then rows up to a
// blank line), cells tab-separated. The churn study's event ("origin 50
// down") is the one cell with spaces: a row's words past the header's
// count belong to its event column.
func keepColumns(t *testing.T, out string, keep []string) []byte {
	t.Helper()
	lines := strings.Split(out, "\n")
	header := strings.Fields(lines[1])
	var idx []int
	for _, name := range keep {
		i := slices.Index(header, name)
		if i < 0 {
			t.Fatalf("no column %q in header %q", name, lines[1])
		}
		idx = append(idx, i)
	}
	var b strings.Builder
	b.WriteString(lines[0] + "\n")
	for _, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			break
		}
		cells := strings.Fields(line)
		if extra := len(cells) - len(header); extra > 0 {
			e := slices.Index(header, "event")
			if e < 0 {
				t.Fatalf("row %q has %d more cells than the header", line, extra)
			}
			cells = slices.Concat(cells[:e], []string{strings.Join(cells[e:e+extra+1], " ")}, cells[e+extra+1:])
		}
		var kept []string
		for _, i := range idx {
			kept = append(kept, cells[i])
		}
		b.WriteString(strings.Join(kept, "\t") + "\n")
	}
	return []byte(b.String())
}

// TestExperimentsDoc holds each EXPERIMENTS.md table that quotes a
// figure to that figure's golden, row by row. The doc drops the golden's
// device counts and writes a mutation count as "detected/faults".
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	dropDevices := func(f []string) []string { return append([]string{f[0]}, f[2:]...) }
	for _, tc := range []struct {
		golden, after string // the golden, and the line above its table there
		docAfter      string // the line above the table in EXPERIMENTS.md
		cells         func(fields []string) []string
	}{
		{"fig6", "=== Figure 6a", "Measured (6a", dropDevices},
		{"fig7", "=== Figure 7", "## Figure 7", dropDevices},
		{"mutation", "=== Mutation study", "## Mutation study", func(f []string) []string {
			return []string{f[0], f[1], f[2] + "/" + f[3]}
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			want := textTable(string(golden), tc.after)
			got := markdownTable(string(doc), tc.docAfter)
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("EXPERIMENTS.md table after %q has %d rows, golden table after %q has %d", tc.docAfter, len(got), tc.after, len(want))
			}
			for i := range want {
				w := strings.Join(tc.cells(want[i]), " | ")
				if g := strings.Join(got[i], " | "); g != w {
					t.Errorf("EXPERIMENTS.md row %d: %s\ngolden: %s", i, g, w)
				}
			}
		})
	}
}

// textTable returns the fields of the rows of the table rendered below
// the first line of out that starts with after: the lines after its
// header, up to a blank line.
func textTable(out, after string) [][]string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, after) {
			continue
		}
		var rows [][]string
		for _, r := range lines[i+2:] {
			if strings.TrimSpace(r) == "" {
				break
			}
			rows = append(rows, strings.Fields(r))
		}
		return rows
	}
	return nil
}

// markdownTable returns the cells of the body rows of the first markdown
// table after the first line of doc that starts with after. A row's
// first cell is cut to its first word, so "original (§7.2)" reads
// "original".
func markdownTable(doc, after string) [][]string {
	lines := strings.Split(doc, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, after) {
			continue
		}
		var rows [][]string
		for _, r := range lines[i+1:] {
			r = strings.TrimSpace(r)
			if !strings.HasPrefix(r, "|") {
				if rows != nil {
					break
				}
				continue
			}
			var cells []string
			for _, c := range strings.Split(strings.Trim(r, "|"), "|") {
				cells = append(cells, strings.TrimSpace(c))
			}
			rows = append(rows, cells)
		}
		if len(rows) < 2 {
			return nil
		}
		body := rows[2:] // below the header and its separator
		for _, cells := range body {
			cells[0] = strings.Fields(cells[0])[0]
		}
		return body
	}
	return nil
}
