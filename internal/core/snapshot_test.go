package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"yardstick/internal/dataplane"
	"yardstick/internal/netmodel"
)

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	cn := buildChain(t)
	fp1, fp2 := Fingerprint(cn.n), Fingerprint(cn.n)
	if fp1 != fp2 {
		t.Errorf("fingerprint not stable: %s != %s", fp1, fp2)
	}
	if len(fp1) != 64 {
		t.Errorf("fingerprint length = %d, want 64 hex chars", len(fp1))
	}

	if fpOther := Fingerprint(buildVariantNet(t)); fpOther == fp1 {
		t.Error("different networks should have different fingerprints")
	}
}

// buildVariantNet is a chain like buildChain's but with an extra drop
// rule, so its fingerprint must differ.
func buildVariantNet(t testing.TB) *netmodel.Network {
	t.Helper()
	n := netmodel.New()
	d1 := n.AddDevice("d1", netmodel.RoleLeaf, 1)
	d2 := n.AddDevice("d2", netmodel.RoleSpine, 2)
	i1, _ := n.Connect(d1, d2, pfx(t, "10.255.0.0/31"))
	n.AddFIBRule(d1, netmodel.MatchDst(pfx(t, "10.0.0.0/8")),
		netmodel.Action{Kind: netmodel.ActForward, OutIfaces: []netmodel.IfaceID{i1}}, netmodel.OriginInternal)
	n.AddFIBRule(d2, netmodel.MatchDst(pfx(t, "192.168.0.0/16")),
		netmodel.Action{Kind: netmodel.ActDrop}, netmodel.OriginStatic)
	n.ComputeMatchSets()
	return n
}

// mustFingerprint is Fingerprint for a test that holds one network.
func mustFingerprint(tb testing.TB, net *netmodel.Network) string {
	tb.Helper()
	return Fingerprint(net)
}

// SaveSnapshot writes a legacy JSON snapshot file: the network's
// fingerprint beside the cube-JSON trace. Production code only reads
// this format (DecodeSnapshot); this writer is the fixture that keeps
// the reader tested.
func SaveSnapshot(tb testing.TB, path string, net *netmodel.Network, t *Trace) {
	tb.Helper()
	var trace bytes.Buffer
	if err := t.EncodeJSON(&trace); err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(snapshotJSON{
		Fingerprint: mustFingerprint(tb, net),
		Trace:       json.RawMessage(trace.Bytes()),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		tb.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	tr.MarkRule(cn.r1)
	tr.MarkPacket(dataplane.Injected(cn.d1), cn.n.Space.DstPrefix(pfx(t, "10.0.0.0/16")))

	path := filepath.Join(t.TempDir(), "trace.snap")
	SaveSnapshot(t, path, cn.n, tr)

	got, legacy, err := LoadSnapshot(path, cn.n, mustFingerprint(t, cn.n))
	if err != nil {
		t.Fatal(err)
	}
	if !legacy {
		t.Error("a JSON snapshot should load as legacy")
	}
	if !got.RuleMarked(cn.r1) {
		t.Error("restored trace lost the marked rule")
	}
	want := tr.PacketsAt(cn.n.Space, dataplane.Injected(cn.d1))
	if !got.PacketsAt(cn.n.Space, dataplane.Injected(cn.d1)).Equal(want) {
		t.Error("restored trace packets differ")
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	cn := buildChain(t)
	tr := NewTrace()
	tr.MarkRule(cn.r1)
	path := filepath.Join(t.TempDir(), "trace.snap")
	SaveSnapshot(t, path, cn.n, tr)

	other := buildVariantNet(t)
	if _, _, err := LoadSnapshot(path, other, mustFingerprint(t, other)); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("LoadSnapshot against a different network = %v, want ErrSnapshotMismatch", err)
	}
}

func TestLoadSnapshotMissing(t *testing.T) {
	cn := buildChain(t)
	_, _, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap"), cn.n, mustFingerprint(t, cn.n))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("LoadSnapshot on missing file = %v, want fs.ErrNotExist", err)
	}
}
