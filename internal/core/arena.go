// Binary trace snapshots over the BDD arena format.
//
// The legacy JSON snapshot (snapshot.go) serializes sets as cube lists —
// exact, but cube extraction can blow up for sets with many disjoint
// cubes, and decoding re-derives every set through full BDD apply
// chains. The arena snapshot instead persists the sets *as a BDD*: the
// sub-DAG the per-location sets reach is written straight from the live
// space as a bdd arena (shared structure stored once, nothing else), and
// the per-location roots are recorded as arena indices. Restore imports
// the arena straight into the live network's space, where a node that
// already exists is found rather than made — linear in the stored
// representation, no cube round-trip and no intermediate manager in
// either direction.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "YSS1"
//	4       4     version (currently 1)
//	8       4     fingerprint length F
//	12      F     network fingerprint (core.Fingerprint, hex)
//	…       8     bdd arena length A
//	…       A     bdd arena blob (bdd.AppendArena, self-checksummed)
//	…       4     location count L
//	…       12*L  locations: device i32, iface i32, root u32,
//	              sorted by (device, iface)
//	…       4     rule count R
//	…       4*R   marked rule IDs, i32, ascending
//	…       4     CRC-32 (IEEE) of everything before it
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"yardstick/internal/bdd"
	"yardstick/internal/dataplane"
	"yardstick/internal/netmodel"
)

// Arena snapshot format constants.
const (
	snapMagic   = "YSS1"
	snapVersion = 1
)

// ErrSnapshotFormat marks a structurally invalid arena snapshot: wrong
// magic, truncation, a failed checksum, or indices that do not resolve
// against the network. (A valid snapshot of a *different* network is
// ErrSnapshotMismatch, as with the legacy JSON snapshot.)
var ErrSnapshotFormat = errors.New("core: invalid arena snapshot")

// IsSnapshotArena reports whether data begins with the arena snapshot
// magic — the sniff LoadSnapshot, DecodeTraceJSON and DecodeFragment use
// to pick a codec.
func IsSnapshotArena(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == snapMagic
}

// snapLoc is one encoded location record.
type snapLoc struct {
	dev   netmodel.DeviceID
	iface netmodel.IfaceID
	root  bdd.Node
}

// EncodeSnapshotArena writes the trace plus the network's fingerprint in
// the binary arena format. The arena is written straight from net's
// space (bdd.Manager.AppendArenaOf), under the trace lock like
// EncodeJSON's cube extraction: a read of the manager that makes no
// node and charges no op, so a context net's space watches never aborts
// it.
func EncodeSnapshotArena(w io.Writer, net *netmodel.Network, t *Trace) error {
	return EncodeFragmentArena(w, net, Fingerprint(net), t)
}

// EncodeFragmentArena is EncodeSnapshotArena for a caller that already
// holds net's fingerprint. Fingerprinting re-encodes the whole network —
// tens of milliseconds on a datacenter-sized one, an order of magnitude
// more than encoding a shard's trace — so a worker serving many job
// fragments of one network computes it once and passes it in.
func EncodeFragmentArena(w io.Writer, net *netmodel.Network, fp string, t *Trace) error {
	t.mu.Lock()
	locs := t.sortedLocs()
	roots := make([]bdd.Node, len(locs))
	for i, loc := range locs {
		s := t.packets[loc]
		if s.Space() != net.Space {
			t.mu.Unlock()
			return fmt.Errorf("core: arena snapshot: the set at %v is not in the network's space", loc)
		}
		roots[i] = s.Node()
	}
	rules := t.sortedRules()
	// The arena holds only the nodes the trace reaches, shared structure
	// across locations stored once; its length is set once it is written.
	buf := make([]byte, 0, 4+4+4+len(fp)+8+12*len(locs)+4+4*len(rules)+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fp)))
	buf = append(buf, fp...)
	lenAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf, roots = net.Space.Manager().AppendArenaOf(buf, roots)
	t.mu.Unlock()
	binary.LittleEndian.PutUint64(buf[lenAt:], uint64(len(buf)-lenAt-8))

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(locs)))
	for i, loc := range locs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(loc.Device))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(loc.Iface))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(roots[i]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rules)))
	for _, r := range rules {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("core: write arena snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshotArena reads an arena snapshot recorded against net. It
// returns ErrSnapshotMismatch when the fingerprint belongs to another
// network and errors wrapping ErrSnapshotFormat (or the bdd arena
// errors) for damaged input; no input panics. The decoded sets are
// transferred into net's space, charging its ops and observing its
// watched context like any other symbolic work.
func DecodeSnapshotArena(data []byte, net *netmodel.Network) (*Trace, error) {
	return decodeArena(data, net, func() string { return Fingerprint(net) })
}

// DecodeFragment decodes one trace fragment received from a peer, in
// whichever codec the peer chose, for a caller that already holds net's
// fingerprint (see EncodeFragmentArena for why that matters). The codec
// is sniffed, never assumed: bytes starting with the arena magic are
// checksum- and fingerprint-checked exactly as DecodeSnapshotArena does —
// a fragment recorded against another network is ErrSnapshotMismatch —
// and anything else is exact-cube trace JSON, which carries no
// fingerprint and is validated against net's index ranges only.
func DecodeFragment(data []byte, net *netmodel.Network, fingerprint string) (*Trace, error) {
	if !IsSnapshotArena(data) {
		return DecodeTraceJSON(net, bytes.NewReader(data))
	}
	return decodeArena(data, net, func() string { return fingerprint })
}

// decodeArena is the arena decoder; want supplies net's fingerprint and
// is asked only once the envelope (length, magic, version, CRC) holds.
func decodeArena(data []byte, net *netmodel.Network, want func() string) (*Trace, error) {
	// header through fingerprint length, plus the three trailing counts
	// and the CRC.
	if len(data) < 4+4+4+8+4+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal snapshot", ErrSnapshotFormat, len(data))
	}
	if !IsSnapshotArena(data) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrSnapshotFormat, v, snapVersion)
	}
	if got, sum := binary.LittleEndian.Uint32(data[len(data)-4:]), crc32.ChecksumIEEE(data[:len(data)-4]); got != sum {
		return nil, fmt.Errorf("%w: crc %08x, computed %08x", ErrSnapshotFormat, got, sum)
	}
	rd := &snapReader{data: data[:len(data)-4], off: 8}

	fpLen := rd.u32()
	if fpLen > 1<<10 {
		return nil, fmt.Errorf("%w: fingerprint length %d out of range", ErrSnapshotFormat, fpLen)
	}
	fp := string(rd.bytes(int(fpLen)))
	if rd.short {
		return nil, fmt.Errorf("%w: truncated fingerprint", ErrSnapshotFormat)
	}
	if fp != want() {
		return nil, ErrSnapshotMismatch
	}

	arenaLen := rd.u64()
	if rd.short || arenaLen > uint64(rd.remaining()) {
		return nil, fmt.Errorf("%w: arena length %d exceeds snapshot", ErrSnapshotFormat, arenaLen)
	}
	arena, err := bdd.ParseArena(rd.bytes(int(arenaLen)))
	if err != nil {
		return nil, fmt.Errorf("core: arena snapshot: %w", err)
	}
	if arena.NumVars() != net.Space.NumBits() {
		return nil, fmt.Errorf("%w: arena is %d bits wide, network space is %d", ErrSnapshotFormat, arena.NumVars(), net.Space.NumBits())
	}

	nLocs := rd.u32()
	if rd.short || uint64(nLocs)*12 > uint64(rd.remaining()) {
		return nil, fmt.Errorf("%w: location count %d exceeds snapshot", ErrSnapshotFormat, nLocs)
	}
	recs := make([]snapLoc, nLocs)
	for i := range recs {
		recs[i] = snapLoc{
			dev:   netmodel.DeviceID(int32(rd.u32())),
			iface: netmodel.IfaceID(int32(rd.u32())),
			root:  bdd.Node(int32(rd.u32())),
		}
		rec := &recs[i]
		if int(rec.dev) < 0 || int(rec.dev) >= len(net.Devices) {
			return nil, fmt.Errorf("%w: location %d: device %d out of range", ErrSnapshotFormat, i, rec.dev)
		}
		if rec.iface != netmodel.NoIface && (int(rec.iface) < 0 || int(rec.iface) >= len(net.Ifaces)) {
			return nil, fmt.Errorf("%w: location %d: iface %d out of range", ErrSnapshotFormat, i, rec.iface)
		}
		if rec.root < 0 || int(rec.root) >= arena.Size() {
			return nil, fmt.Errorf("%w: location %d: root %d outside arena", ErrSnapshotFormat, i, rec.root)
		}
	}
	nRules := rd.u32()
	if rd.short || uint64(nRules)*4 > uint64(rd.remaining()) {
		return nil, fmt.Errorf("%w: rule count %d exceeds snapshot", ErrSnapshotFormat, nRules)
	}
	ruleIDs := make([]netmodel.RuleID, nRules)
	for i := range ruleIDs {
		ruleIDs[i] = netmodel.RuleID(int32(rd.u32()))
		if int(ruleIDs[i]) < 0 || int(ruleIDs[i]) >= len(net.Rules) {
			return nil, fmt.Errorf("%w: rule entry %d: id %d out of range", ErrSnapshotFormat, i, ruleIDs[i])
		}
	}
	if rd.short || rd.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotFormat, rd.remaining())
	}

	// Import the arena into the live space: every node it already holds
	// is found, not made. Guard: the live manager may watch a context,
	// and restore work must degrade into an error like any other
	// cancelled evaluation.
	var img []bdd.Node
	if gerr := bdd.Guard(func() { img, err = net.Space.Manager().ImportArena(arena) }); gerr != nil {
		return nil, fmt.Errorf("core: arena snapshot restore: %w", gerr)
	}
	if err != nil {
		return nil, fmt.Errorf("core: arena snapshot: %w", err)
	}
	t := NewTrace()
	for _, rec := range recs {
		t.MarkPacket(dataplane.Loc{Device: rec.dev, Iface: rec.iface}, net.Space.FromNode(img[rec.root]))
	}
	for _, r := range ruleIDs {
		t.MarkRule(r)
	}
	return t, nil
}

// snapReader is a bounds-tracked cursor over the snapshot payload. A
// read past the end sets short and sticks there, returning zero values;
// decode checks short at every stage boundary, so truncated input is
// always a typed format error, never a panic.
type snapReader struct {
	data  []byte
	off   int
	short bool
}

func (r *snapReader) remaining() int { return len(r.data) - r.off }

func (r *snapReader) take(n int) []byte {
	if r.short || r.remaining() < n {
		r.short = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) bytes(n int) []byte { return r.take(n) }
