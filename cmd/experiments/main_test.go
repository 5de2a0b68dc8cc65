package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata from the command's output")

// figures are the deterministic figures, each with the golden that pins
// its stdout.
var figures = []struct {
	golden string
	args   string
}{
	{"fig6", "-fig 6"},
	{"fig7", "-fig 7"},
	{"mutation", "-fig mutation -mutations 50"},
}

// TestGolden pins the stdout of every figure whose numbers are not
// timings. Run with -update after an intended change to a figure, and
// review the diff under testdata with the EXPERIMENTS.md tables that
// TestExperimentsDoc holds to them.
func TestGolden(t *testing.T) {
	for _, f := range figures {
		t.Run(f.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), strings.Fields(f.args), &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d: %s", code, stderr.String())
			}
			path := filepath.Join("testdata", f.golden+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s:\n%s\nwant:\n%s", path, stdout.String(), want)
			}
		})
	}
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
