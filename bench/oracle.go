package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"yardstick/internal/core"
	"yardstick/internal/netmodel"
	"yardstick/internal/report"
	"yardstick/internal/service"
	"yardstick/internal/testkit"
)

// The oracle is the plain sequential in-process path — Suite.Run into a
// core.Trace, then the core metrics — with no sharded engine, no delta
// engine and no daemon. Every op's coverage table is byte-compared with
// it.

// jsonMarshal encodes the way the service's writeJSON does (a trailing
// newline is trimmed so fragments compare equal to json.RawMessage
// fields).
func jsonMarshal(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// oracle holds the reference outputs for one (network, suite set).
type oracle struct {
	table  string            // report.RenderTable text, as the CLI and the coordinator print it
	total  []byte            // GET /coverage "total" field
	byRole []byte            // GET /coverage "byRole" field
	checks map[string]int    // test name -> assertions evaluated
	suite  map[string]string // suite name -> test name
}

// coverageRows computes both renderings of the coverage table.
func coverageRows(n *netmodel.Network, tr *core.Trace) (table string, total, byRole []byte, err error) {
	cov := core.NewCoverage(n, tr)
	roles := rolesOf(n)
	rows := report.ByRole(cov, roles)
	var buf bytes.Buffer
	report.RenderTable(&buf, append(append([]report.Metrics(nil), rows...), report.Total(cov, "TOTAL")))
	table = buf.String()

	row := func(m report.Metrics) service.MetricsRow {
		return service.MetricsRow{Group: m.Label, Devices: m.Devices, DeviceFractional: m.DeviceFractional,
			IfaceFractional: m.IfaceFractional, RuleFractional: m.RuleFractional, RuleWeighted: m.RuleWeighted}
	}
	if total, err = jsonMarshal(row(report.Total(cov, "total"))); err != nil {
		return
	}
	var svcRows []service.MetricsRow
	for _, m := range rows {
		svcRows = append(svcRows, row(m))
	}
	byRole, err = jsonMarshal(svcRows)
	return
}

// computeOracle runs suites sequentially on n and renders the tables.
func computeOracle(n *netmodel.Network, suites []string) (*oracle, error) {
	o := &oracle{checks: map[string]int{}, suite: map[string]string{}}
	tr := core.NewTrace()
	for _, name := range suites {
		s, err := testkit.BuiltinSuite(name)
		if err != nil {
			return nil, err
		}
		for _, r := range s.Run(context.Background(), n, tr) {
			if !r.Pass() {
				return nil, fmt.Errorf("oracle: %s did not pass (%s): the generated network must pass every test", r.Name, r.Status())
			}
			o.checks[r.Name] = r.Checks
			o.suite[name] = r.Name
		}
	}
	var err error
	o.table, o.total, o.byRole, err = coverageRows(n, tr)
	return o, err
}

// digest identifies the oracle's outputs.
func (o *oracle) digest() string {
	h := sha256.New()
	h.Write([]byte(o.table))
	h.Write(o.total)
	h.Write(o.byRole)
	return hex.EncodeToString(h.Sum(nil))
}

// tableFrom cuts the coverage table out of a CLI or coordinator stdout:
// the lines after "coverage:" up to the next blank line.
func tableFrom(stdout []byte) string {
	_, rest, ok := strings.Cut("\n"+string(stdout), "\ncoverage:\n")
	if !ok {
		return ""
	}
	if i := strings.Index(rest, "\n\n"); i >= 0 {
		rest = rest[:i+1]
	}
	return rest
}

// checkCoverageBody compares a GET /coverage body's table fields with
// the oracle's, byte for byte; the engine diagnostics are not part of
// the table.
func (o *oracle) checkCoverageBody(body []byte) error {
	var got struct {
		Total  json.RawMessage `json:"total"`
		ByRole json.RawMessage `json:"byRole"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("coverage body: %w", err)
	}
	if !bytes.Equal(got.Total, o.total) || !bytes.Equal(got.ByRole, o.byRole) {
		return fmt.Errorf("coverage table differs from oracle: got total %s", got.Total)
	}
	return nil
}

// checkJobResult verifies a finished job's results: every test of the
// submitted suites passed with the oracle's assertion count.
func (o *oracle) checkJobResult(suites []string, raw json.RawMessage) error {
	var res []service.RunResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("job result: %w", err)
	}
	if len(res) != len(suites) {
		return fmt.Errorf("job ran %d tests, want %d", len(res), len(suites))
	}
	for i, r := range res {
		want := o.suite[suites[i]]
		if r.Name != want || !r.Pass || r.Errored || r.Checks != o.checks[want] {
			return fmt.Errorf("job test %d: got %s pass=%v checks=%d, want %s pass checks=%d",
				i, r.Name, r.Pass, r.Checks, want, o.checks[want])
		}
	}
	return nil
}

// Golden digests pin the oracle itself for seed 1: the programs and the
// oracle share their libraries, so a change that moved both the same
// way would otherwise pass the byte comparison.

const goldenSeed = 1

func goldenPath(benchDir string) string {
	return filepath.Join(benchDir, "golden", fmt.Sprintf("seed%d.json", goldenSeed))
}

func loadGolden(benchDir string) (map[string]string, error) {
	data, err := os.ReadFile(goldenPath(benchDir))
	if err != nil {
		return nil, err
	}
	var g map[string]string
	return g, json.Unmarshal(data, &g)
}

// checkGolden compares digest with the pinned one for key, or records it
// when update is set.
func checkGolden(benchDir, key, digest string, update bool) error {
	g, err := loadGolden(benchDir)
	if err != nil && !(update && os.IsNotExist(err)) {
		return fmt.Errorf("golden digests: %w", err)
	}
	if update {
		if g == nil {
			g = map[string]string{}
		}
		g[key] = digest
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(goldenPath(benchDir), append(data, '\n'), 0o644)
	}
	if want, ok := g[key]; !ok || want != digest {
		return fmt.Errorf("golden digest for %s: got %.16s, pinned %.16s (run with -update-golden if the change is intended)", key, digest, want)
	}
	return nil
}
