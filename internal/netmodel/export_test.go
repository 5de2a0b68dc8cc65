package netmodel

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"strings"

	"yardstick/internal/hdr"
)

// EncodeJSONReference is the struct-based encoder EncodeJSON replaced:
// jsonNetwork through encoding/json with a one-space indent. It defines
// the bytes EncodeJSON must produce.
func (n *Network) EncodeJSONReference(w io.Writer) error {
	jn := jsonNetwork{}
	if n.Family() == hdr.V6 {
		jn.Family = "ipv6"
	}
	for _, d := range n.Devices {
		jd := jsonDevice{Name: d.Name, Role: string(d.Role), ASN: d.ASN}
		for _, p := range d.Loopbacks {
			jd.Loopbacks = append(jd.Loopbacks, p.String())
		}
		for _, p := range d.Subnets {
			jd.Subnets = append(jd.Subnets, p.String())
		}
		jn.Devices = append(jn.Devices, jd)
	}
	for _, ifc := range n.Ifaces {
		jn.Ifaces = append(jn.Ifaces, jsonIface{
			Device:   int32(ifc.Device),
			Name:     ifc.Name,
			Addr:     prefixString(ifc.Addr),
			Peer:     int32(ifc.Peer),
			External: ifc.External,
		})
	}
	for _, r := range n.Rules {
		jn.Rules = append(jn.Rules, ruleSpec(r))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jn)
}

// DecodeJSONReference is DecodeJSON with the struct decoder decodeWire
// replaced: jsonNetwork through encoding/json's Decoder with unknown
// fields disallowed. It defines which documents DecodeJSON accepts and
// the network each one decodes to.
func DecodeJSONReference(r io.Reader) (*Network, error) {
	jn, err := decodeWireReference(r)
	if err != nil {
		return nil, err
	}
	return jn.build()
}

func decodeWireReference(r io.Reader) (*jsonNetwork, error) {
	jn := new(jsonNetwork)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(jn); err != nil {
		return nil, fmt.Errorf("netmodel: decode: %w", err)
	}
	return jn, nil
}

// WireDiff runs decodeWire and the struct decoder on doc and describes
// how they disagree — on acceptance, or on the wire structs they fill
// (reflect.DeepEqual, so a nil slice differs from an empty one) — or
// returns "" when they agree. A decodeWire error must also carry the
// "netmodel: decode:" prefix and, unless the input was empty, an offset.
func WireDiff(doc []byte) string {
	got, gerr := decodeWire(bytes.NewReader(doc))
	want, werr := decodeWireReference(bytes.NewReader(doc))
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Sprintf("decodeWire error %v, reference error %v", gerr, werr)
	case gerr != nil && !strings.HasPrefix(gerr.Error(), "netmodel: decode: "):
		return fmt.Sprintf("error %q lacks the netmodel: decode: prefix", gerr)
	case gerr != nil && !errors.Is(gerr, io.EOF) && !strings.Contains(gerr.Error(), "offset "):
		return fmt.Sprintf("error %q names no offset", gerr)
	case gerr == nil && !reflect.DeepEqual(got, want):
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return fmt.Sprintf("wire structs differ:\n got  %s\n want %s", g, w)
	}
	return ""
}

// ScanJSON runs decodeWire alone, the scan half of DecodeJSON.
func ScanJSON(doc []byte) error {
	_, err := decodeWire(bytes.NewReader(doc))
	return err
}

// OrderedFIBMatchSets derives the match sets of dev's FIB, in FIB order,
// with the ordered claimed-union walk (computeTable) forced on copies of
// its rules: the oracle for computeFIB's children-only derivation.
func (n *Network) OrderedFIBMatchSets(dev DeviceID) []hdr.Set {
	fib := n.Devices[dev].FIB
	shadow := make([]*Rule, len(n.Rules))
	for _, id := range fib {
		r := *n.Rules[id]
		shadow[id] = &r
	}
	n.computeTable(shadow, fib)
	out := make([]hdr.Set, len(fib))
	for i, id := range fib {
		out[i] = shadow[id].match
	}
	return out
}

// FoldedForwarding builds dev's action classes the way a FIB that is
// not destination-only does, by folding the members' match sets
// (foldClasses), whatever the table's shape: the oracle for the class
// walk. Nothing is published.
func (n *Network) FoldedForwarding(dev DeviceID) *Forwarding {
	d := n.Devices[dev]
	f := &Forwarding{}
	class, _ := n.groupByAction(f, d)
	n.foldClasses(f, d, class)
	return f
}

// DstOnly reports whether dev's FIB takes the longest-prefix lookup.
func (n *Network) DstOnly(dev DeviceID) bool { return n.index[dev].dstOnly }

// BuiltForwarding returns dev's action classes if a flood has built
// them, nil otherwise; unlike Forwarding it never builds.
func (n *Network) BuiltForwarding(dev DeviceID) *Forwarding { return n.index[dev].fwd }

// Derived counts the disjoint match sets computed so far, by
// ComputeMatchSets and every Commit.
func (n *Network) Derived() int { return n.derived }

// ScratchMatchSets derives every rule's disjoint match set from scratch
// in n's own space — a new network with n's devices and rules, frozen by
// ComputeMatchSets — and returns them by rule ID. BDDs are canonical, so
// a set equal to the incremental one is the same node.
func (n *Network) ScratchMatchSets() []hdr.Set {
	s := &Network{Space: n.Space, byName: make(map[string]DeviceID)}
	for _, d := range n.Devices {
		s.AddDevice(d.Name, d.Role, d.ASN)
	}
	for _, r := range n.Rules {
		s.addRule(r.Device, r.Table, r.Match, r.Action, r.Origin, r.Deny)
	}
	s.ComputeMatchSets()
	out := make([]hdr.Set, len(s.Rules))
	for i, r := range s.Rules {
		out[i] = r.match
	}
	return out
}

// MarkEvery is the spacing of a frozen network's fingerprint marks.
const MarkEvery = markEvery

// Marks counts the fingerprint marks the network holds.
func (n *Network) Marks() int {
	n.encMu.Lock()
	defer n.encMu.Unlock()
	return len(n.marks)
}

// MarkedFIB builds three devices with destination-only FIBs and rules
// rules in all, interleaved by device, frozen: a network that holds
// fingerprint marks past the first once rules exceeds MarkEvery.
func MarkedFIB(rules int) *Network {
	n := New()
	var acts []Action
	for d := 0; d < 3; d++ {
		dev := n.AddDevice(string(rune('a'+d)), RoleToR, uint32(d+1))
		acts = append(acts, Action{Kind: ActForward, OutIfaces: []IfaceID{n.AddIface(dev, "up")}})
	}
	for i := 0; i < rules; i++ {
		pf := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 3 >> 8), byte(i / 3), 0}), 24)
		if i < 3 {
			pf = netip.PrefixFrom(netip.IPv4Unspecified(), 0)
		}
		n.AddFIBRule(DeviceID(i%3), MatchDst(pf), acts[i%3], OriginInternal)
	}
	n.ComputeMatchSets()
	return n
}
