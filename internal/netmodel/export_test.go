package netmodel

import (
	"encoding/json"
	"io"

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

// DstOnly reports whether dev's FIB takes the longest-prefix lookup.
func (n *Network) DstOnly(dev DeviceID) bool { return n.index[dev].dstOnly }

// BuiltForwarding returns dev's action classes if a flood has built
// them, nil otherwise; unlike Forwarding it never builds.
func (n *Network) BuiltForwarding(dev DeviceID) *Forwarding { return n.index[dev].fwd }
