package bdd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

// arenaFixture builds a manager with some real structure and returns it
// plus a few roots to check functions on.
func arenaFixture(tb testing.TB) (*Manager, []Node) {
	tb.Helper()
	m := New(10)
	rng := rand.New(rand.NewSource(21))
	roots := make([]Node, 8)
	for i := range roots {
		roots[i] = randomNode(m, rng, 40)
	}
	return m, roots
}

func TestArenaRoundTrip(t *testing.T) {
	m, roots := arenaFixture(t)
	var buf bytes.Buffer
	if err := m.WriteArena(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != m.ArenaSize() {
		t.Fatalf("encoded %d bytes, ArenaSize says %d", got, m.ArenaSize())
	}
	if !IsArena(buf.Bytes()) {
		t.Fatal("IsArena rejected a fresh arena")
	}
	got, err := DecodeArena(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != m.Size() || got.NumVars() != m.NumVars() {
		t.Fatalf("loaded %d nodes/%d vars, want %d/%d", got.Size(), got.NumVars(), m.Size(), m.NumVars())
	}
	for i := range m.nodes {
		if m.nodes[i] != got.nodes[i] {
			t.Fatalf("node %d differs after round trip", i)
		}
	}
	// The unique table must be rebuilt with identical geometry, so the
	// loaded manager grows exactly like the dumped one.
	if len(got.uniq) != len(m.uniq) || got.uniqUsed != m.uniqUsed {
		t.Fatalf("unique table geometry %d/%d, want %d/%d",
			got.uniqUsed, len(got.uniq), m.uniqUsed, len(m.uniq))
	}
	for _, r := range roots {
		want := enumerate(m, r)
		have := enumerate(got, r)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("root %d: truth tables differ after round trip", r)
			}
		}
	}
	// Hash consing must work on the loaded table: re-making an existing
	// triple lands on the existing index.
	for _, r := range roots {
		if r == False || r == True {
			continue
		}
		nd := got.nodes[r]
		if n := got.mk(nd.level, nd.low, nd.high); n != r {
			t.Fatalf("loaded mk returned %d, want %d", n, r)
		}
	}
}

func TestArenaDecodeRejectsDamage(t *testing.T) {
	m, _ := arenaFixture(t)
	good := m.AppendArena(nil)

	check := func(name string, data []byte, want error) {
		t.Helper()
		got, err := DecodeArena(data)
		if err == nil {
			t.Fatalf("%s: decode accepted corrupt input", name)
		}
		if got != nil {
			t.Fatalf("%s: non-nil manager alongside error", name)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
	}

	check("empty", nil, ErrArenaFormat)
	check("truncated header", good[:10], ErrArenaFormat)
	check("truncated body", good[:len(good)-20], ErrArenaFormat)
	check("trailing garbage", append(append([]byte(nil), good...), 0xFF), ErrArenaFormat)

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	check("bad magic", bad, ErrArenaFormat)

	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:], 99)
	check("future version", bad, ErrArenaVersion)

	// A flipped bit anywhere in the node payload must fail the checksum.
	bad = append([]byte(nil), good...)
	bad[arenaHeaderSize+5] ^= 0x40
	check("bit flip", bad, ErrArenaChecksum)

	// Structural damage with a recomputed (valid) checksum must still be
	// rejected by the invariant checks: here a child pointing at itself.
	bad = append([]byte(nil), good...)
	if m.Size() > 2 {
		binary.LittleEndian.PutUint32(bad[arenaHeaderSize+2*arenaNodeSize+4:], 2) // node 2's low := 2
		body := bad[:len(bad)-arenaCRCSize]
		binary.LittleEndian.PutUint32(bad[len(bad)-arenaCRCSize:], crc32.ChecksumIEEE(body))
		check("self child", bad, ErrArenaFormat)
	}
}

func TestArenaDecodeRejectsDuplicateTriple(t *testing.T) {
	// Hand-build an arena holding the same decision node twice — a table
	// no hash-consed manager can produce.
	var buf []byte
	buf = append(buf, arenaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, arenaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 4) // numVars
	buf = binary.LittleEndian.AppendUint64(buf, 4) // two terminals + dup pair
	appendNode := func(level, low, high uint32) {
		buf = binary.LittleEndian.AppendUint32(buf, level)
		buf = binary.LittleEndian.AppendUint32(buf, low)
		buf = binary.LittleEndian.AppendUint32(buf, high)
	}
	appendNode(4, 0, 0)
	appendNode(4, 0, 0)
	appendNode(0, 0, 1)
	appendNode(0, 0, 1)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := DecodeArena(buf); !errors.Is(err, ErrArenaFormat) {
		t.Fatalf("err = %v, want ErrArenaFormat", err)
	}
}

// FuzzArenaDecode mirrors FuzzTraceRoundTrip for the binary codec: any
// input must either be rejected with a typed error or decode into a
// manager whose re-encoding is byte-identical (the arena of a valid
// table is a fixed point). No input may panic.
func FuzzArenaDecode(f *testing.F) {
	m, _ := arenaFixture(f)
	good := m.AppendArena(nil)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(arenaMagic))
	small := New(3)
	small.And(small.Var(0), small.Var(2))
	f.Add(small.AppendArena(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeArena(data)
		if err != nil {
			if !errors.Is(err, ErrArenaFormat) && !errors.Is(err, ErrArenaVersion) && !errors.Is(err, ErrArenaChecksum) {
				t.Fatalf("untyped arena error: %v", err)
			}
			return
		}
		re := got.AppendArena(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted arena is not a fixed point: %d bytes in, %d out", len(data), len(re))
		}
	})
}
