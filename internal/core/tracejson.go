package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"yardstick/internal/dataplane"
	"yardstick/internal/netmodel"
)

// Trace serialization lets coverage accumulate across test-suite runs
// and days — the "compare coverage across time for the same network"
// use case of §3.2. Packet sets are stored exactly as BDD cubes, so a
// decoded trace yields identical metrics.
//
// Rule and location IDs are only meaningful alongside the network the
// trace was recorded against; store the trace next to the network's own
// JSON (netmodel.EncodeJSON).

type traceJSON struct {
	Packets []tracePackets `json:"packets"`
	Rules   []int32        `json:"rules"`
}

type tracePackets struct {
	Device int32    `json:"device"`
	Iface  int32    `json:"iface"` // -1 = injected at the device
	Cubes  []string `json:"cubes"`
}

// EncodeJSON writes the trace. Output is deterministic (sorted by
// location and rule).
//
// The snapshot — including cube extraction, which is BDD-manager work and
// must stay serialized with concurrent markers — happens under the trace
// lock; JSON encoding and the writes to w happen after it is released, so
// a slow writer (a snapshot to disk, a stalled HTTP client) never blocks
// concurrent marking.
func (t *Trace) EncodeJSON(w io.Writer) error {
	t.mu.Lock()

	var tj traceJSON
	for _, loc := range t.sortedLocs() {
		tj.Packets = append(tj.Packets, tracePackets{
			Device: int32(loc.Device),
			Iface:  int32(loc.Iface),
			Cubes:  t.packets[loc].Cubes(),
		})
	}
	for _, r := range t.sortedRules() {
		tj.Rules = append(tj.Rules, int32(r))
	}
	t.mu.Unlock()

	enc := json.NewEncoder(w)
	return enc.Encode(tj)
}

// DecodeTraceJSON reads a trace recorded against the given network. The
// network bounds validation: device, interface, and rule indices must be
// in range.
//
// It is the single decode entry for trace bytes of unknown provenance,
// so like LoadSnapshot it sniffs the codec: input that starts with the
// arena magic goes to DecodeSnapshotArena (checksum and fingerprint
// checked), anything else is the exact-cube JSON this file writes. A
// peer that answers an arena request with JSON, or the reverse, is
// therefore decoded by what it sent, never by what was asked for. The
// arena branch fingerprints net on every call; a caller that already
// holds the fingerprint uses DecodeFragment, the same sniff without it.
func DecodeTraceJSON(net *netmodel.Network, r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(len(snapMagic)); IsSnapshotArena(head) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: read arena trace: %w", err)
		}
		return DecodeSnapshotArena(data, net)
	}
	var tj traceJSON
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tj); err != nil {
		return nil, fmt.Errorf("core: decode trace: %w", err)
	}
	t := NewTrace()
	for i, p := range tj.Packets {
		if int(p.Device) < 0 || int(p.Device) >= len(net.Devices) {
			return nil, fmt.Errorf("core: trace entry %d: device %d out of range", i, p.Device)
		}
		if p.Iface != int32(netmodel.NoIface) && (int(p.Iface) < 0 || int(p.Iface) >= len(net.Ifaces)) {
			return nil, fmt.Errorf("core: trace entry %d: iface %d out of range", i, p.Iface)
		}
		set, err := net.Space.FromCubes(p.Cubes)
		if err != nil {
			return nil, fmt.Errorf("core: trace entry %d: %w", i, err)
		}
		t.MarkPacket(dataplane.Loc{
			Device: netmodel.DeviceID(p.Device),
			Iface:  netmodel.IfaceID(p.Iface),
		}, set)
	}
	for i, r := range tj.Rules {
		if int(r) < 0 || int(r) >= len(net.Rules) {
			return nil, fmt.Errorf("core: trace rule %d: id %d out of range", i, r)
		}
		t.MarkRule(netmodel.RuleID(r))
	}
	return t, nil
}
