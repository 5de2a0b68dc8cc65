package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// writeNets generates the before and after networks in-process and
// writes them as JSON into a fresh directory: the Figure 1 example, the
// same with border b2's null-routed default, and a one-pod regional Clos
// (netgen -topology example [-bug], netgen -topology regional -dcs 1
// -pods 1 -tors 2 -aggs 2 -spines 2 -hubs 2 -wanhubs 1 write the same
// bytes).
func writeNets(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, net *netmodel.Network, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := net.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := topogen.BuildExample(topogen.ExampleOpts{})
	write("ex.json", ex.Net, err)
	bug, err := topogen.BuildExample(topogen.ExampleOpts{BugNullRoute: true})
	write("exbug.json", bug.Net, err)
	rg, err := topogen.BuildRegional(topogen.RegionalOpts{DCs: 1, PodsPerDC: 1, ToRsPerPod: 2, AggsPerPod: 2, SpinesPerDC: 2, Hubs: 2, WANHubs: 1})
	write("reg.json", rg.Net, err)
	return dir
}

// TestGolden pins the command's full stdout and exit code. The files
// under testdata were written by the binary of the commit before the
// change check moved into internal/engine (same arguments on the same
// networks, stdout redirected), so a pass means the move changed no
// byte. drift0.golden is the exception: that binary read -drift 0 as the
// 0.2 default and called this change safe; a zero tolerance now flags
// it. Regenerate a file only for an intended output change.
func TestGolden(t *testing.T) {
	dir := writeNets(t)
	cases := []struct {
		name string
		args string
		code int
	}{
		{"nochange", "-before ex.json -after ex.json", 0},
		{"regional", "-before reg.json -after reg.json", 0},
		{"fails", "-before ex.json -after exbug.json -suite default", 2},
		{"drift", "-before ex.json -after exbug.json -suite connected -drift 0.05", 2},
		{"drift0", "-before ex.json -after exbug.json -suite connected -drift 0", 2},
		{"nopaths", "-before ex.json -after exbug.json -suite connected -nopaths", 0},
		{"pathbudget", "-before ex.json -after exbug.json -suite connected -drift 0.05 -pathbudget 1", 0},
		{"missing", "-before ex.json -after missing.json", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			args := strings.Fields(tc.args)
			for i, a := range args {
				if strings.HasSuffix(a, ".json") {
					args[i] = filepath.Join(dir, a)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from testdata/%s.golden:\n%s\nwant:\n%s", tc.name, stdout.String(), want)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	dir := writeNets(t)
	ex := filepath.Join(dir, "ex.json")
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 1},
		{[]string{"-before", ex}, 1},
		{[]string{"-before", ex, "-after", ex, "-suite", "nope"}, 1},
		{[]string{"-no-such-flag"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != tc.code || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit code %d, stdout %q, stderr %q; want %d with only a message", tc.args, code, stdout.String(), stderr.String(), tc.code)
		}
	}
}
