package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins the CLI's full stdout and exit code. The files under
// testdata were written by the binary of the commit before the CLI moved
// onto internal/engine (same arguments, stdout redirected), so a pass
// means the rewire changed no byte; regenerate one only for an intended
// output change, by running the command its case spells out.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args string
		code int
	}{
		{"example-bug", "-topology example -bug -detail l1 -flow l1:10.0.2.0/24", 2},
		{"regional", "-detail dc0-p0-tor0 -flow dc0-p0-tor0:10.0.4.0/24", 0},
		{"fattree4", "-topology fattree -k 4 -detail p0-tor0 -flow p0-tor0:10.1.0.0/24", 0},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s-w%d", tc.name, workers)
			t.Run(name, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				args := strings.Fields(fmt.Sprintf("%s -workers %d -suite default,internal,agg,reach -gaps", tc.args, workers))
				var stdout, stderr bytes.Buffer
				if code := run(context.Background(), args, &stdout, &stderr); code != tc.code {
					t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
				}
				if !bytes.Equal(stdout.Bytes(), want) {
					t.Errorf("stdout differs from testdata/%s.golden:\n%s\nwant:\n%s", name, stdout.String(), want)
				}
			})
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-topology", "bogus"},
		{"-topology", "example", "-suite", "wan"},
		{"-topology", "example", "-flow", "l1"},
		{"-topology", "example", "-detail", "nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 1 || stderr.Len() == 0 {
			t.Errorf("%v: exit code %d, stderr %q; want 1 with a message", args, code, stderr.String())
		}
	}
}
