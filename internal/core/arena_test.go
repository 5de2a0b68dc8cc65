package core

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"yardstick/internal/bdd"
	"yardstick/internal/dataplane"
)

// snapFixture builds a chain network and a trace with packet and rule
// marks — the usual snapshot material.
func snapFixture(tb testing.TB) (chainNet, *Trace) {
	tb.Helper()
	cn := buildChain(tb)
	sp := cn.n.Space
	tr := NewTrace()
	tr.MarkPacket(dataplane.Injected(cn.d1), sp.DstPrefix(pfx(tb, "10.0.0.0/9")).Union(sp.DstPrefix(pfx(tb, "192.168.0.0/16"))))
	tr.MarkPacket(cn.loc1Peer, sp.DstPrefix(pfx(tb, "10.0.0.0/16")).Intersect(sp.Proto(6)))
	tr.MarkRule(cn.r2)
	return cn, tr
}

func TestSnapshotArenaRoundTrip(t *testing.T) {
	cn, tr := snapFixture(t)

	var buf bytes.Buffer
	if err := EncodeSnapshotArena(&buf, cn.n, tr); err != nil {
		t.Fatal(err)
	}
	if !IsSnapshotArena(buf.Bytes()) {
		t.Fatal("IsSnapshotArena rejected a fresh snapshot")
	}
	got, err := DecodeSnapshotArena(buf.Bytes(), cn.n)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded sets live in the network's space and are node-equal to
	// the originals (the transfer lands on canonical nodes), so the
	// strongest trace equality holds.
	if !got.Equal(tr) {
		t.Fatal("trace differs after arena round trip")
	}
	// Metrics are identical.
	c1, c2 := NewCoverage(cn.n, tr), NewCoverage(cn.n, got)
	for _, r := range cn.n.Rules {
		if !c1.Covered(r.ID).Equal(c2.Covered(r.ID)) {
			t.Errorf("covered set of rule %d differs", r.ID)
		}
	}
	// Deterministic encoding: re-encoding the decoded trace reproduces
	// the file byte for byte.
	var buf2 bytes.Buffer
	if err := EncodeSnapshotArena(&buf2, cn.n, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("arena snapshot encoding is not deterministic")
	}
}

func TestSnapshotArenaMismatch(t *testing.T) {
	cn, tr := snapFixture(t)
	var buf bytes.Buffer
	if err := EncodeSnapshotArena(&buf, cn.n, tr); err != nil {
		t.Fatal(err)
	}
	other := buildChain(t)
	other.n.AddDevice("extra", "leaf", 9)
	if _, err := DecodeSnapshotArena(buf.Bytes(), other.n); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("err = %v, want ErrSnapshotMismatch", err)
	}
}

func TestSnapshotArenaRejectsDamage(t *testing.T) {
	cn, tr := snapFixture(t)
	var buf bytes.Buffer
	if err := EncodeSnapshotArena(&buf, cn.n, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		got, err := DecodeSnapshotArena(data, cn.n)
		if err == nil {
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
		if got != nil {
			t.Fatalf("%s: non-nil trace alongside error", name)
		}
		if errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("%s: corruption misreported as fingerprint mismatch: %v", name, err)
		}
	}

	check("empty", nil)
	check("truncated header", good[:8])
	check("truncated mid-fingerprint", good[:20])
	check("truncated body", good[:len(good)-10])
	check("trailing garbage", append(append([]byte(nil), good...), 0))

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	check("bad magic", bad)

	// A flipped bit anywhere fails the outer checksum.
	bad = append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x01
	check("bit flip", bad)
}

func TestSaveSnapshotArenaAndSniffingLoad(t *testing.T) {
	cn, tr := snapFixture(t)
	dir := t.TempDir()

	fp := mustFingerprint(t, cn.n)

	// Arena file loads through the same LoadSnapshot entry point. Saving
	// twice overwrites atomically and leaves no temp file behind.
	ap := filepath.Join(dir, "arena.snap")
	for i := 0; i < 2; i++ {
		if err := SaveSnapshotArena(ap, cn.n, fp, tr); err != nil {
			t.Fatal(err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("snapshot directory holds %d entries (err %v), want arena.snap alone", len(entries), err)
	}
	got, legacy, err := LoadSnapshot(ap, cn.n, fp)
	if err != nil {
		t.Fatal(err)
	}
	if legacy || !got.Equal(tr) {
		t.Errorf("arena snapshot after LoadSnapshot: legacy %v, equal %v", legacy, got.Equal(tr))
	}

	// JSON files still load (the codec is sniffed, not configured).
	jp := filepath.Join(dir, "json.snap")
	SaveSnapshot(t, jp, cn.n, tr)
	gotJSON, legacy, err := LoadSnapshot(jp, cn.n, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !legacy || !gotJSON.Equal(tr) {
		t.Errorf("JSON snapshot after LoadSnapshot: legacy %v, equal %v", legacy, gotJSON.Equal(tr))
	}

	// Missing files still surface fs.ErrNotExist for the restore path.
	if _, _, err := LoadSnapshot(filepath.Join(dir, "nope"), cn.n, fp); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file err = %v, want fs.ErrNotExist", err)
	}

	// Restore must charge the live manager and observe its watched
	// context: cancelled at its second op, it degrades into an error, not
	// a panic. A cancelled context is seen at the next poll, every 1024
	// ops, so the count is brought two ops short of one.
	for cn.n.Space.EngineStats().Ops%1024 != 1022 {
		cn.n.Space.Manager().Restrict(bdd.True, 0, 0, nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	restore := cn.n.Space.WatchContext(ctx)
	_, _, err = LoadSnapshot(ap, cn.n, fp)
	restore()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("restore cancelled at its second op: err = %v, want context.Canceled", err)
	}
}

// TestTraceDecodeSniffsCodec: the decode entry points take bytes of
// either codec and pick by magic — a peer that was asked for an arena and
// answered JSON (or the reverse) is decoded by what it sent. Arena input
// keeps its fingerprint check on every path; damage stays a format error.
func TestTraceDecodeSniffsCodec(t *testing.T) {
	cn, tr := snapFixture(t)
	fp := Fingerprint(cn.n)
	var arena, cubes bytes.Buffer
	if err := EncodeFragmentArena(&arena, cn.n, fp, tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeJSON(&cubes); err != nil {
		t.Fatal(err)
	}
	// With the fingerprint passed in, the encoding is the snapshot's.
	var snap bytes.Buffer
	if err := EncodeSnapshotArena(&snap, cn.n, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arena.Bytes(), snap.Bytes()) {
		t.Fatal("EncodeFragmentArena and EncodeSnapshotArena disagree")
	}

	for name, data := range map[string][]byte{"arena": arena.Bytes(), "json": cubes.Bytes()} {
		got, err := DecodeTraceJSON(cn.n, bytes.NewReader(data))
		if err != nil || !got.Equal(tr) {
			t.Errorf("DecodeTraceJSON(%s) = (equal %v, %v)", name, err == nil && got.Equal(tr), err)
		}
		got, err = DecodeFragment(data, cn.n, fp)
		if err != nil || !got.Equal(tr) {
			t.Errorf("DecodeFragment(%s) = (equal %v, %v)", name, err == nil && got.Equal(tr), err)
		}
	}

	// Another network: mismatch, by either entry.
	other := buildChain(t)
	other.n.AddDevice("extra", "leaf", 9)
	if _, err := DecodeTraceJSON(other.n, bytes.NewReader(arena.Bytes())); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("DecodeTraceJSON against another network: %v, want ErrSnapshotMismatch", err)
	}
	if _, err := DecodeFragment(arena.Bytes(), cn.n, "not-"+fp); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("DecodeFragment with another fingerprint: %v, want ErrSnapshotMismatch", err)
	}
	// Damage is caught by the checksum before the fingerprint is looked at.
	bad := append([]byte(nil), arena.Bytes()...)
	bad[len(bad)/2] ^= 0x01
	if _, err := DecodeFragment(bad, cn.n, fp); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("DecodeFragment(bit flip) = %v, want ErrSnapshotFormat", err)
	}
	if _, err := DecodeFragment(arena.Bytes()[:arena.Len()/2], cn.n, fp); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("DecodeFragment(truncated) = %v, want ErrSnapshotFormat", err)
	}
}

// TestArenaFromExtractionEncoderImports: testdata/chain-extracted.yss1
// is snapFixture's trace as written through a private extraction space,
// the form checkpoints on disk were saved in before arenas were written
// straight from the live space. Its arena also holds the extraction
// space's quantification-cube nodes, which no location reaches. It
// still imports Equal, and writing the trace again ships only the
// reachable nodes.
func TestArenaFromExtractionEncoderImports(t *testing.T) {
	cn, tr := snapFixture(t)
	old, err := os.ReadFile(filepath.Join("testdata", "chain-extracted.yss1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotArena(old, cn.n)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tr) {
		t.Fatal("the extracted arena imports as another trace")
	}
	var now bytes.Buffer
	if err := EncodeSnapshotArena(&now, cn.n, tr); err != nil {
		t.Fatal(err)
	}
	if now.Len() >= len(old) {
		t.Fatalf("the live-space arena is %d bytes, the extracted one %d", now.Len(), len(old))
	}
	t.Logf("extracted %d bytes, live %d", len(old), now.Len())
}
