// Disk-backed arenas: BDD nodes as a versioned, checksummed
// little-endian dump.
//
// The node slice IS the manager — the unique table, op cache, and
// SatFraction memo are all derivable from it — so persistence is a bulk
// write of 12-byte records behind a fixed-width header, mmap-able or
// plain-readable. An arena is written either of a whole manager
// (AppendArena) or of the sub-DAG some roots reach, straight from a live
// manager (AppendArenaOf: what a trace snapshot or fragment ships).
// Loading validates structure exhaustively (ParseArena: a corrupt or
// adversarial file must produce a typed error, never a panic or a
// silently wrong table) and then imports the records into a live
// manager through its unique table (ImportArena), so a node the manager
// already holds is found rather than copied. DecodeArena is the import
// into a fresh manager: same nodes at the same indices, same table
// geometry, same future resize points as the manager that was dumped.
//
// Caches and memos are deliberately not serialized — they are pure
// memoization, cold-start cheap, and their contents never affect
// results. Watched contexts are not serialized either (see
// clone.go for the same rule on clones).
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "YSB1"
//	4       4     version (currently 1)
//	8       4     numVars
//	12      8     node count (including the two terminals)
//	20      12*n  node records: level u32, low u32, high u32
//	20+12n  4     CRC-32 (IEEE) of everything before it
package bdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Arena format constants.
const (
	arenaMagic   = "YSB1"
	arenaVersion = 1
	// arenaHeaderSize is magic + version + numVars + node count.
	arenaHeaderSize = 4 + 4 + 4 + 8
	arenaNodeSize   = 12
	arenaCRCSize    = 4
)

// Typed arena decode errors. Every failure to load an arena wraps
// exactly one of these, so callers can distinguish "not an arena"
// (fall back to another codec) from "an arena, but damaged".
var (
	// ErrArenaFormat marks structurally invalid input: wrong magic,
	// truncation, impossible sizes, or node records that violate the
	// BDD invariants (ordering, reduction, canonicity).
	ErrArenaFormat = errors.New("bdd: invalid arena")
	// ErrArenaVersion marks a well-formed arena of an unsupported
	// version.
	ErrArenaVersion = errors.New("bdd: unsupported arena version")
	// ErrArenaChecksum marks an arena whose payload does not match its
	// checksum (bit rot, torn write).
	ErrArenaChecksum = errors.New("bdd: arena checksum mismatch")
)

// ArenaSize returns the encoded size of the manager's arena in bytes.
func (m *Manager) ArenaSize() int {
	return arenaHeaderSize + arenaNodeSize*len(m.nodes) + arenaCRCSize
}

// AppendArena appends the manager's arena encoding to buf and returns
// the extended slice. The dump is O(size) and read-only on m.
func (m *Manager) AppendArena(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, arenaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, arenaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.numVars))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(m.nodes)))
	for i := range m.nodes {
		nd := &m.nodes[i]
		buf = binary.LittleEndian.AppendUint32(buf, nd.level)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.low))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.high))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// WriteArena writes the manager's arena encoding to w.
func (m *Manager) WriteArena(w io.Writer) error {
	buf := m.AppendArena(make([]byte, 0, m.ArenaSize()))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("bdd: write arena: %w", err)
	}
	return nil
}

// IsArena reports whether data begins with the arena magic — the sniff
// callers use to pick a codec before committing to a full decode.
func IsArena(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == arenaMagic
}

// AppendArenaOf appends the arena of the nodes reachable from roots —
// the roots' sub-DAG, not the whole manager — and returns the extended
// slice and each root's index in the arena. The walk visits low before
// high and writes children before parents, numbering the nodes densely
// after the two terminals, so the bytes depend only on the roots'
// functions and their order, never on where the nodes sit in m. It is
// read-only on m: no node is made, no op is charged, and nothing it
// allocates is sized by m — only by the nodes the roots reach.
func (m *Manager) AppendArenaOf(buf []byte, roots []Node) ([]byte, []Node) {
	start := len(buf)
	buf = append(buf, arenaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, arenaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.numVars))
	buf = binary.LittleEndian.AppendUint64(buf, 0) // node count, set once the walk is done
	w := subDAGWriter{m: m, buf: buf, index: map[Node]Node{}}
	for range 2 {
		w.record(uint32(m.numVars), False, False)
	}
	at := make([]Node, len(roots))
	for i, r := range roots {
		if r < 0 || int(r) >= len(m.nodes) {
			panic(fmt.Sprintf("bdd: arena of invalid node %d", r))
		}
		at[i] = w.visit(r)
	}
	buf = w.buf
	binary.LittleEndian.PutUint64(buf[start+12:], uint64(w.next))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), at
}

// subDAGWriter is one AppendArenaOf walk: index maps each node written
// so far to its arena index, and next is the next index to hand out.
type subDAGWriter struct {
	m     *Manager
	buf   []byte
	index map[Node]Node
	next  Node
}

// visit writes n's sub-DAG, children first, and returns n's arena index.
func (w *subDAGWriter) visit(n Node) Node {
	if n <= True {
		return n
	}
	if i, ok := w.index[n]; ok {
		return i
	}
	nd := w.m.nodes[n]
	low := w.visit(nd.low)
	high := w.visit(nd.high)
	i := w.record(nd.level, low, high)
	w.index[n] = i
	return i
}

// record appends one node record and returns its index.
func (w *subDAGWriter) record(level uint32, low, high Node) Node {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, level)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(low))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(high))
	w.next++
	return w.next - 1
}

// Arena is an arena encoding whose header, checksum and node records
// ParseArena has checked. Canonicity — no triple twice — needs a unique
// table, so ImportArena checks it as it builds.
type Arena struct {
	numVars int
	count   int
	recs    []byte // count node records
}

// NumVars returns the arena's variable count.
func (a Arena) NumVars() int { return a.numVars }

// Size returns the arena's node count, including the two terminals.
func (a Arena) Size() int { return a.count }

// node returns record i.
func (a Arena) node(i int) (level uint32, low, high Node) {
	r := a.recs[i*arenaNodeSize:]
	return binary.LittleEndian.Uint32(r),
		Node(int32(binary.LittleEndian.Uint32(r[4:]))),
		Node(int32(binary.LittleEndian.Uint32(r[8:])))
}

// ParseArena validates an arena encoding without building anything:
// header sanity, checksum, and per-node BDD invariants (the first two
// records are terminals; every other record's children precede it, its
// level is in range and strictly above both children's, and it is
// reduced, low != high). Failures return an error wrapping
// ErrArenaFormat, ErrArenaVersion, or ErrArenaChecksum; no input panics.
// It allocates nothing.
func ParseArena(data []byte) (Arena, error) {
	if len(data) < arenaHeaderSize+2*arenaNodeSize+arenaCRCSize {
		return Arena{}, fmt.Errorf("%w: %d bytes is shorter than the minimal arena", ErrArenaFormat, len(data))
	}
	if !IsArena(data) {
		return Arena{}, fmt.Errorf("%w: bad magic %q", ErrArenaFormat, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != arenaVersion {
		return Arena{}, fmt.Errorf("%w: version %d (want %d)", ErrArenaVersion, v, arenaVersion)
	}
	numVars := binary.LittleEndian.Uint32(data[8:])
	if numVars > 1<<20 {
		return Arena{}, fmt.Errorf("%w: variable count %d out of range", ErrArenaFormat, numVars)
	}
	count := binary.LittleEndian.Uint64(data[12:])
	if count < 2 || count > uint64(1)<<31 {
		return Arena{}, fmt.Errorf("%w: node count %d out of range", ErrArenaFormat, count)
	}
	want := arenaHeaderSize + arenaNodeSize*int(count) + arenaCRCSize
	if len(data) != want {
		return Arena{}, fmt.Errorf("%w: %d bytes for %d nodes (want %d)", ErrArenaFormat, len(data), count, want)
	}
	body := data[:want-arenaCRCSize]
	if got, sum := binary.LittleEndian.Uint32(data[want-arenaCRCSize:]), crc32.ChecksumIEEE(body); got != sum {
		return Arena{}, fmt.Errorf("%w: crc %08x, computed %08x", ErrArenaChecksum, got, sum)
	}
	a := Arena{numVars: int(numVars), count: int(count), recs: body[arenaHeaderSize:]}
	for i := range a.count {
		level, low, high := a.node(i)
		if i < 2 {
			// Terminals: level one past the last variable, no children.
			if level != numVars || low != 0 || high != 0 {
				return Arena{}, fmt.Errorf("%w: node %d is not a terminal (level %d low %d high %d)", ErrArenaFormat, i, level, low, high)
			}
			continue
		}
		// Decision nodes: ordered (level strictly above both children's),
		// reduced (low != high), and append-ordered (children precede
		// parents, so indices only point downward).
		if level >= numVars {
			return Arena{}, fmt.Errorf("%w: node %d level %d out of range [0,%d)", ErrArenaFormat, i, level, numVars)
		}
		if low < 0 || int(low) >= i || high < 0 || int(high) >= i {
			return Arena{}, fmt.Errorf("%w: node %d children (%d,%d) not below it", ErrArenaFormat, i, low, high)
		}
		if low == high {
			return Arena{}, fmt.Errorf("%w: node %d is redundant (low == high == %d)", ErrArenaFormat, i, low)
		}
		lowLevel, _, _ := a.node(int(low))
		highLevel, _, _ := a.node(int(high))
		if lowLevel <= level || highLevel <= level {
			return Arena{}, fmt.Errorf("%w: node %d level %d not above children's (%d,%d)", ErrArenaFormat, i, level, lowLevel, highLevel)
		}
	}
	return a, nil
}

// ImportArena builds a's nodes in m, in arena order, each through the
// unique table, and returns every arena node's image in m (terminals
// map to themselves). A node m already holds is found, not made, so an
// import adds only the nodes m lacks. Each record is charged as one op
// and polls m's watched context, as a Transfer copy does; a
// cancellation leaves the nodes made so far, all canonical.
//
// The arena must be canonical: two records with the same triple would
// import as one node, so a repeated image is ErrArenaFormat. (The
// images of distinct triples are distinct by induction, children
// first.) An arena of another variable count is ErrArenaFormat too.
func (m *Manager) ImportArena(a Arena) ([]Node, error) {
	if a.numVars != m.numVars {
		return nil, fmt.Errorf("%w: arena has %d variables, manager %d", ErrArenaFormat, a.numVars, m.numVars)
	}
	img := make([]Node, a.count)
	img[True] = True
	start := Node(len(m.nodes))
	// held lists the images m held before the import; a repeat among
	// them shows only once they are sorted.
	var held []Node
	for i := 2; i < a.count; i++ {
		level, low, high := a.node(i)
		m.chargeOp()
		size := len(m.nodes)
		n := m.mk(level, img[low], img[high])
		switch {
		case len(m.nodes) > size:
		case n >= start:
			return nil, fmt.Errorf("%w: node %d duplicates an earlier node (%d,%d,%d)", ErrArenaFormat, i, level, low, high)
		default:
			held = append(held, n)
		}
		img[i] = n
	}
	slices.Sort(held)
	for i := 1; i < len(held); i++ {
		if held[i] == held[i-1] {
			return nil, fmt.Errorf("%w: two nodes import as node %d (a duplicate triple)", ErrArenaFormat, held[i])
		}
	}
	return img, nil
}

// DecodeArena reconstructs a Manager from an arena encoding: ParseArena,
// then ImportArena into a fresh manager. Failures return an error
// wrapping ErrArenaFormat, ErrArenaVersion, or ErrArenaChecksum; no
// input panics, and no corrupt table is ever accepted.
//
// Every record of a valid arena is new to the fresh manager, so each
// node lands at its arena index, and the unique table and op cache grow
// through the schedule construction follows: the loaded manager's
// geometry — and every future resize point — matches the dumped one's
// exactly. Its op count is the number of decision nodes imported.
func DecodeArena(data []byte) (*Manager, error) {
	a, err := ParseArena(data)
	if err != nil {
		return nil, err
	}
	m := New(a.numVars)
	m.nodes = append(make([]node, 0, a.count), m.nodes...)
	if _, err := m.ImportArena(a); err != nil {
		return nil, err
	}
	return m, nil
}
