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
