// Disk-backed arenas: the flat node array as a versioned, checksummed
// little-endian dump.
//
// The node slice IS the manager — the unique table, op cache, and
// SatFraction memo are all derivable from it — so persistence is a bulk
// write of 12-byte records behind a fixed-width header, mmap-able or
// plain-readable. Loading validates structure exhaustively (a corrupt
// or adversarial file must produce a typed error, never a panic or a
// silently wrong table) and rebuilds the unique table by replaying the
// deterministic growth schedule, so a loaded manager is bit-identical
// to the one that was dumped: same nodes at the same indices, same
// table geometry, same future resize points.
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

// DecodeArena reconstructs a Manager from an arena encoding. The input
// is validated exhaustively: header sanity, checksum, and per-node BDD
// invariants (children precede parents, levels strictly increase
// downward, no redundant or duplicate nodes). Failures return an error
// wrapping ErrArenaFormat, ErrArenaVersion, or ErrArenaChecksum; no
// input panics, and no corrupt table is ever accepted.
//
// The op cache starts cold, sized for the node count by the rule a
// growing manager follows. The unique table is rebuilt through the same
// growth schedule construction uses, so the loaded manager's geometry —
// and every future resize point — matches the dumped one's exactly.
func DecodeArena(data []byte) (*Manager, error) {
	if len(data) < arenaHeaderSize+2*arenaNodeSize+arenaCRCSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal arena", ErrArenaFormat, len(data))
	}
	if !IsArena(data) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrArenaFormat, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != arenaVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrArenaVersion, v, arenaVersion)
	}
	numVars := binary.LittleEndian.Uint32(data[8:])
	if numVars > 1<<20 {
		return nil, fmt.Errorf("%w: variable count %d out of range", ErrArenaFormat, numVars)
	}
	count := binary.LittleEndian.Uint64(data[12:])
	if count < 2 || count > uint64(1)<<31 {
		return nil, fmt.Errorf("%w: node count %d out of range", ErrArenaFormat, count)
	}
	want := arenaHeaderSize + arenaNodeSize*int(count) + arenaCRCSize
	if len(data) != want {
		return nil, fmt.Errorf("%w: %d bytes for %d nodes (want %d)", ErrArenaFormat, len(data), count, want)
	}
	body := data[:want-arenaCRCSize]
	if got, sum := binary.LittleEndian.Uint32(data[want-arenaCRCSize:]), crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: crc %08x, computed %08x", ErrArenaChecksum, got, sum)
	}

	m := New(int(numVars))
	m.nodes = make([]node, 0, count)
	rec := data[arenaHeaderSize:]
	for i := uint64(0); i < count; i++ {
		level := binary.LittleEndian.Uint32(rec[0:])
		low := Node(int32(binary.LittleEndian.Uint32(rec[4:])))
		high := Node(int32(binary.LittleEndian.Uint32(rec[8:])))
		rec = rec[arenaNodeSize:]
		if i < 2 {
			// Terminals: level one past the last variable, no children.
			if level != numVars || low != 0 || high != 0 {
				return nil, fmt.Errorf("%w: node %d is not a terminal (level %d low %d high %d)", ErrArenaFormat, i, level, low, high)
			}
			m.nodes = append(m.nodes, node{level: level})
			continue
		}
		// Decision nodes: ordered (level strictly above both children's),
		// reduced (low != high), and append-ordered (children precede
		// parents, so indices only point downward).
		if level >= numVars {
			return nil, fmt.Errorf("%w: node %d level %d out of range [0,%d)", ErrArenaFormat, i, level, numVars)
		}
		if low < 0 || uint64(low) >= i || high < 0 || uint64(high) >= i {
			return nil, fmt.Errorf("%w: node %d children (%d,%d) not below it", ErrArenaFormat, i, low, high)
		}
		if low == high {
			return nil, fmt.Errorf("%w: node %d is redundant (low == high == %d)", ErrArenaFormat, i, low)
		}
		if m.nodes[low].level <= level || m.nodes[high].level <= level {
			return nil, fmt.Errorf("%w: node %d level %d not above children's (%d,%d)", ErrArenaFormat, i, level,
				m.nodes[low].level, m.nodes[high].level)
		}
		m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	}

	// Rebuild the unique table by replaying the growth schedule: same
	// insertion order, same resize points, same deterministic placement
	// as original construction. A duplicate triple is corruption — the
	// dump came from a hash-consed table, so every triple is unique.
	for i := 2; i < len(m.nodes); i++ {
		nd := &m.nodes[i]
		if !m.fileNode(Node(i), nd.level, nd.low, nd.high) {
			return nil, fmt.Errorf("%w: node %d duplicates node (%d,%d,%d)", ErrArenaFormat, i, nd.level, nd.low, nd.high)
		}
	}
	m.maybeGrowCache()
	return m, nil
}

// fileNode inserts an already-appended node into the unique table,
// growing it on the same 3/4-load schedule as insert. It reports false
// when an identical triple is already filed (corrupt arena).
func (m *Manager) fileNode(n Node, level uint32, low, high Node) bool {
	if (m.uniqUsed+1)*4 > len(m.uniq)*3 {
		m.growUnique()
	}
	h := mix(uint64(level), uint64(uint32(low)), uint64(uint32(high)))
	mask := uint64(len(m.uniq) - 1)
	i := h & mask
	for {
		s := &m.uniq[i]
		if s.node == 0 {
			*s = uniqSlot{hash: h, node: n}
			m.uniqUsed++
			return true
		}
		if s.hash == h {
			nd := &m.nodes[s.node]
			if nd.level == level && nd.low == low && nd.high == high {
				return false
			}
		}
		i = (i + 1) & mask
	}
}
