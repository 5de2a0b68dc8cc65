package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/outage.golden from the example's output")

// TestGolden pins the walkthrough's output byte for byte: the coverage
// figures, the sorted breakdown of B2's uncovered rules and the failure
// DefaultRouteCheck reports. Run with -update after an intended change
// and review the diff.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "outage.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n%s\nwant:\n%s", path, out.String(), want)
	}
}
