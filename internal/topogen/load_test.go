package topogen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestLoad(t *testing.T) {
	dir := t.TempDir()

	// JSON file.
	ex, err := BuildExample(ExampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ex.Net.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "net.json")
	if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(jsonPath, "", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Net.Stats().Devices != ex.Net.Stats().Devices {
		t.Errorf("JSON load: %d devices, want %d", got.Net.Stats().Devices, ex.Net.Stats().Devices)
	}
	// A file has no generator order: roles come in device order (b1 is a
	// border, s1 a spine, l1 a leaf).
	if len(got.Roles) != 3 || got.Roles[0] != "border" || got.Roles[2] != "leaf" {
		t.Errorf("JSON load: roles %v, want border, spine, leaf", got.Roles)
	}

	// Text file, detected by extension.
	txtPath := filepath.Join(dir, "net.txt")
	text := []byte("device a role=tor\ndevice b role=spine\nlink a b 10.128.0.0/31\nroute a 0.0.0.0/0 via b origin=default\n")
	if err := os.WriteFile(txtPath, text, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err = Load(txtPath, "", 0, false); err != nil {
		t.Fatal(err)
	}
	if got.Net.Stats().Devices != 2 {
		t.Errorf("text load: %d devices, want 2", got.Net.Stats().Devices)
	}

	// Generated topologies carry their tier order; only the regional one
	// carries generator metadata.
	if got, err := Load("", "example", 0, true); err != nil || got.Roles[0] != "leaf" || got.Regional != nil {
		t.Errorf("topology example = (%+v, %v)", got, err)
	}
	if got, err := Load("", "regional", 0, false); err != nil || got.Regional == nil || got.Regional.Net != got.Net {
		t.Errorf("topology regional = (%+v, %v)", got, err)
	}
	if got, err := Load("", "fattree", 4, false); err != nil || got.Net.Stats().Devices != FatTreeSize(4) {
		t.Errorf("topology fattree = (%+v, %v)", got, err)
	}
	for _, bad := range []string{"", "bogus"} {
		if _, err := Load("", bad, 0, false); err == nil {
			t.Errorf("topology %q should error", bad)
		}
	}
}
