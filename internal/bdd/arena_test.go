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
	if _, err := DecodeArena(dupArena()); !errors.Is(err, ErrArenaFormat) {
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

// reachable returns the decision nodes reachable from roots.
func reachable(m *Manager, roots []Node) map[Node]bool {
	seen := map[Node]bool{}
	var walk func(Node)
	walk = func(n Node) {
		if n <= True || seen[n] {
			return
		}
		seen[n] = true
		walk(m.nodes[n].low)
		walk(m.nodes[n].high)
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

// subDAGFixture builds roots over 12 variables among unrelated nodes,
// terminals and a repeated root included.
func subDAGFixture(m *Manager, seed int64) []Node {
	rng := rand.New(rand.NewSource(seed))
	for range 20 {
		randomNode(m, rng, 30) // nodes no root reaches
	}
	roots := []Node{False, True}
	for range 6 {
		roots = append(roots, randomNode(m, rng, 25))
	}
	return append(roots, roots[3])
}

// TestArenaOfSubDAG: AppendArenaOf writes exactly the decision nodes the
// roots reach, without touching the manager, and each root's arena index
// decodes to its function; the bytes depend on the functions alone, not
// on where the nodes sit in the manager.
func TestArenaOfSubDAG(t *testing.T) {
	m := New(12)
	roots := subDAGFixture(m, 5)
	before := m.Stats()
	data, at := m.AppendArenaOf([]byte("prefix"), roots)
	if m.Stats() != before {
		t.Fatalf("writing the arena moved the manager: %+v -> %+v", before, m.Stats())
	}
	if string(data[:6]) != "prefix" {
		t.Fatal("AppendArenaOf overwrote the buffer it appends to")
	}
	data = data[6:]
	a, err := ParseArena(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + len(reachable(m, roots)); a.Size() != want {
		t.Fatalf("arena holds %d nodes, want the %d the roots reach", a.Size(), want)
	}
	d, err := DecodeArena(data)
	if err != nil {
		t.Fatal(err)
	}
	back := m.BeginTransfer(d)
	for i, r := range roots {
		if got := back.Copy(at[i]); got != r {
			t.Fatalf("root %d: arena node %d decodes to node %d, want %d", i, at[i], got, r)
		}
	}
	if m.Size() != before.Nodes {
		t.Fatal("the decoded roots are not the manager's nodes")
	}

	// The same functions in a manager that built them in another order,
	// among other nodes, write the same bytes.
	other := New(12)
	subDAGFixture(other, 9)
	moved := make([]Node, len(roots))
	in := other.BeginTransfer(m)
	for i := len(roots) - 1; i >= 0; i-- {
		moved[i] = in.Copy(roots[i])
	}
	if again, _ := other.AppendArenaOf(nil, moved); !bytes.Equal(again, data) {
		t.Fatal("the arena of the same functions differs with their placement")
	}
}

// TestImportArenaAddsOnlyMissing: importing into a manager that holds
// part of the arena's nodes makes exactly the rest, charging one op per
// record; each root lands on the node a transfer gives; a second import
// makes nothing.
func TestImportArenaAddsOnlyMissing(t *testing.T) {
	src := New(12)
	roots := subDAGFixture(src, 7)
	data, at := src.AppendArenaOf(nil, roots)
	a, err := ParseArena(data)
	if err != nil {
		t.Fatal(err)
	}
	half := roots[:len(roots)/2]
	dst := New(12)
	tr := dst.BeginTransfer(src)
	for _, r := range half {
		tr.Copy(r)
	}
	size, ops := dst.Size(), dst.Stats().Ops
	img, err := dst.ImportArena(a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dst.Size()-size, len(reachable(src, roots))-len(reachable(src, half)); got != want {
		t.Fatalf("import made %d nodes, want the %d the manager lacked", got, want)
	}
	if got := dst.Stats().Ops - ops; got != uint64(a.Size()-2) {
		t.Fatalf("import charged %d ops, want one per decision record (%d)", got, a.Size()-2)
	}
	for i, r := range roots {
		if want := tr.Copy(r); img[at[i]] != want {
			t.Fatalf("root %d imports as node %d, a transfer gives %d", i, img[at[i]], want)
		}
	}
	size = dst.Size()
	if _, err := dst.ImportArena(a); err != nil || dst.Size() != size {
		t.Fatalf("second import: %v, %d new nodes; want none", err, dst.Size()-size)
	}
	if _, err := New(11).ImportArena(a); !errors.Is(err, ErrArenaFormat) {
		t.Fatalf("import across variable counts: %v, want ErrArenaFormat", err)
	}
}

// dupArena is an arena holding the decision node (0, False, True) twice —
// a table no hash-consed manager can produce.
func dupArena() []byte {
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
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestImportArenaRejectsDuplicateOfHeldNode: a duplicate triple is
// refused also when the manager already holds that node, so both copies
// are found rather than made.
func TestImportArenaRejectsDuplicateOfHeldNode(t *testing.T) {
	a, err := ParseArena(dupArena())
	if err != nil {
		t.Fatalf("ParseArena: %v (it cannot see duplicates)", err)
	}
	m := New(4)
	m.Var(0)
	if _, err := m.ImportArena(a); !errors.Is(err, ErrArenaFormat) {
		t.Fatalf("err = %v, want ErrArenaFormat", err)
	}
}

// FuzzArenaImport: an import into a manager that already holds nodes —
// some of them the arena's own — accepts exactly the arenas DecodeArena
// accepts, maps every arena node to the node a transfer from the decoded
// manager gives, and makes exactly the images the manager lacked. No
// input panics.
func FuzzArenaImport(f *testing.F) {
	m, roots := arenaFixture(f)
	f.Add(m.AppendArena(nil))
	sub, _ := m.AppendArenaOf(nil, roots)
	f.Add(sub)
	f.Add(sub[:len(sub)/2])
	f.Add(dupArena())
	small := New(3)
	small.And(small.Var(0), small.Var(2))
	f.Add(small.AppendArena(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, ferr := DecodeArena(data)
		a, err := ParseArena(data)
		if err != nil {
			if ferr == nil {
				t.Fatalf("DecodeArena accepts what ParseArena refuses: %v", err)
			}
			return
		}
		if a.NumVars() == 0 || a.NumVars() > 16 {
			return
		}
		dst := New(a.NumVars())
		rng := rand.New(rand.NewSource(int64(len(data))))
		for range 3 {
			randomNode(dst, rng, 8)
		}
		if ferr == nil {
			// Some of the arena's own nodes, too.
			in := dst.BeginTransfer(fresh)
			for i := 2; i < fresh.Size(); i += 3 {
				in.Copy(Node(i))
			}
		}
		size := dst.Size()
		img, err := dst.ImportArena(a)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("import into a non-empty manager: %v; DecodeArena: %v", err, ferr)
		}
		if err != nil {
			if !errors.Is(err, ErrArenaFormat) {
				t.Fatalf("untyped import error: %v", err)
			}
			return
		}
		made := map[Node]bool{}
		for _, n := range img {
			if n >= Node(size) {
				made[n] = true
			}
		}
		if dst.Size()-size != len(made) {
			t.Fatalf("import made %d nodes, %d of its images are new", dst.Size()-size, len(made))
		}
		in := dst.BeginTransfer(fresh)
		for i, n := range img {
			if want := in.Copy(Node(i)); n != want {
				t.Fatalf("arena node %d imports as %d, a transfer gives %d", i, n, want)
			}
		}
	})
}
