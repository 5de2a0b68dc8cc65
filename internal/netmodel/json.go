package netmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strconv"

	"yardstick/internal/hdr"
)

// The JSON format mirrors the internal arrays: device, interface, and
// rule indices in the file are the DeviceID/IfaceID/RuleID values, so a
// decoded network is structurally identical to the encoded one.

type jsonNetwork struct {
	Family  string       `json:"family,omitempty"` // "ipv6"; absent = IPv4
	Devices []jsonDevice `json:"devices"`
	Ifaces  []jsonIface  `json:"ifaces"`
	Rules   []RuleSpec   `json:"rules"`
}

type jsonDevice struct {
	Name      string   `json:"name"`
	Role      string   `json:"role"`
	ASN       uint32   `json:"asn,omitempty"`
	Loopbacks []string `json:"loopbacks,omitempty"`
	Subnets   []string `json:"subnets,omitempty"`
}

type jsonIface struct {
	Device   int32  `json:"device"`
	Name     string `json:"name"`
	Addr     string `json:"addr,omitempty"`
	Peer     int32  `json:"peer"` // -1 = none
	External bool   `json:"external,omitempty"`
}

// MatchSpec is the wire form of a rule's match fields. It is shared by
// the whole-network JSON format and the rule-delta documents of
// internal/delta (PATCH /network), so a delta can carry exactly what a
// network file would.
type MatchSpec struct {
	Dst     string    `json:"dst,omitempty"`
	Src     string    `json:"src,omitempty"`
	Proto   *int32    `json:"proto,omitempty"`
	DstPort *[2]int32 `json:"dstPort,omitempty"`
	SrcPort *[2]int32 `json:"srcPort,omitempty"`
}

// TransformSpec is the wire form of a rule's header rewrite.
type TransformSpec struct {
	RewriteDst bool   `json:"rewriteDst,omitempty"`
	RewriteSrc bool   `json:"rewriteSrc,omitempty"`
	Addr       string `json:"addr"`
}

// RuleSpec is the wire form of one rule: the element type of a network
// file's "rules" array and the payload of delta add/modify operations.
// Device and interface references are indices into the network the spec
// is applied to.
type RuleSpec struct {
	Device    int32          `json:"device"`
	Table     string         `json:"table"` // "acl" or "fib"
	Match     MatchSpec      `json:"match"`
	Action    string         `json:"action"` // "forward", "drop", "deliver"
	Out       []int32        `json:"out,omitempty"`
	Transform *TransformSpec `json:"transform,omitempty"`
	Origin    string         `json:"origin,omitempty"`
	Deny      bool           `json:"deny,omitempty"`
}

func prefixString(p netip.Prefix) string {
	if !p.IsValid() {
		return ""
	}
	return p.String()
}

func parsePrefix(s string) (netip.Prefix, error) {
	if s == "" {
		return netip.Prefix{}, nil
	}
	return netip.ParsePrefix(s)
}

// MatchSpecOf converts match fields to their wire form.
func MatchSpecOf(m Match) MatchSpec {
	var jm MatchSpec
	jm.Dst = prefixString(m.DstPrefix)
	jm.Src = prefixString(m.SrcPrefix)
	if m.Proto >= 0 {
		p := m.Proto
		jm.Proto = &p
	}
	if m.DstPortLo != 0 || m.DstPortHi != 65535 {
		jm.DstPort = &[2]int32{int32(m.DstPortLo), int32(m.DstPortHi)}
	}
	if m.SrcPortLo != 0 || m.SrcPortHi != 65535 {
		jm.SrcPort = &[2]int32{int32(m.SrcPortLo), int32(m.SrcPortHi)}
	}
	return jm
}

// Match parses and validates the spec's match fields.
func (jm MatchSpec) Match() (Match, error) {
	m := MatchAll()
	var err error
	if m.DstPrefix, err = parsePrefix(jm.Dst); err != nil {
		return m, fmt.Errorf("dst: %w", err)
	}
	if m.SrcPrefix, err = parsePrefix(jm.Src); err != nil {
		return m, fmt.Errorf("src: %w", err)
	}
	if jm.Proto != nil {
		if *jm.Proto < 0 || *jm.Proto > 255 {
			return m, fmt.Errorf("proto %d out of range", *jm.Proto)
		}
		m.Proto = *jm.Proto
	}
	if jm.DstPort != nil {
		if err := checkPort(jm.DstPort); err != nil {
			return m, fmt.Errorf("dstPort: %w", err)
		}
		m.DstPortLo, m.DstPortHi = uint16(jm.DstPort[0]), uint16(jm.DstPort[1])
	}
	if jm.SrcPort != nil {
		if err := checkPort(jm.SrcPort); err != nil {
			return m, fmt.Errorf("srcPort: %w", err)
		}
		m.SrcPortLo, m.SrcPortHi = uint16(jm.SrcPort[0]), uint16(jm.SrcPort[1])
	}
	return m, nil
}

func checkPort(r *[2]int32) error {
	for _, v := range r {
		if v < 0 || v > 65535 {
			return fmt.Errorf("port %d out of range", v)
		}
	}
	return nil
}

// RuleDef is a parsed, validated rule specification in model types —
// what a RuleSpec becomes after ParseRuleSpec, and what Mutation
// operations consume.
type RuleDef struct {
	Device DeviceID
	Table  TableKind
	Match  Match
	Action Action
	Origin RouteOrigin
	Deny   bool
}

// ParseRuleSpec validates a wire-format rule against the network's
// topology (device and interface references must resolve) and converts
// it to model types. ACL entries take their action from the deny flag;
// the spec's action field is ignored for them, mirroring DecodeJSON.
func (n *Network) ParseRuleSpec(spec RuleSpec) (RuleDef, error) {
	var def RuleDef
	if int(spec.Device) < 0 || int(spec.Device) >= len(n.Devices) {
		return def, fmt.Errorf("device %d out of range", spec.Device)
	}
	def.Device = DeviceID(spec.Device)
	m, err := spec.Match.Match()
	if err != nil {
		return def, fmt.Errorf("match: %w", err)
	}
	def.Match = m
	def.Origin = RouteOrigin(spec.Origin)
	def.Deny = spec.Deny
	if spec.Table == "acl" {
		// ACL actions are implied by the deny flag.
		def.Table = TableACL
		if spec.Deny {
			def.Action = Action{Kind: ActDrop}
		} else {
			def.Action = Action{Kind: ActForward}
		}
		return def, nil
	}
	switch spec.Action {
	case "forward":
		def.Action.Kind = ActForward
		if len(spec.Out) == 0 {
			return def, fmt.Errorf("forward with no out interfaces")
		}
		for _, out := range spec.Out {
			if int(out) < 0 || int(out) >= len(n.Ifaces) {
				return def, fmt.Errorf("out iface %d out of range", out)
			}
			if n.Iface(IfaceID(out)).Device != def.Device {
				return def, fmt.Errorf("out iface %d not on device", out)
			}
			def.Action.OutIfaces = append(def.Action.OutIfaces, IfaceID(out))
		}
	case "drop":
		def.Action.Kind = ActDrop
	case "deliver":
		def.Action.Kind = ActDeliver
	default:
		return def, fmt.Errorf("unknown action %q", spec.Action)
	}
	if spec.Transform != nil {
		addr, err := netip.ParseAddr(spec.Transform.Addr)
		if err != nil {
			return def, fmt.Errorf("transform: %w", err)
		}
		def.Action.Transform = &Transform{
			RewriteDst: spec.Transform.RewriteDst,
			RewriteSrc: spec.Transform.RewriteSrc,
			Addr:       addr,
		}
	}
	if spec.Table != "fib" {
		return def, fmt.Errorf("unknown table %q", spec.Table)
	}
	def.Table = TableFIB
	return def, nil
}

// ruleSpec converts a live rule back to its wire form.
func ruleSpec(r *Rule) RuleSpec {
	jr := RuleSpec{
		Device: int32(r.Device),
		Match:  MatchSpecOf(r.Match),
		Origin: string(r.Origin),
		Deny:   r.Deny,
	}
	if r.Table == TableACL {
		jr.Table = "acl"
	} else {
		jr.Table = "fib"
	}
	switch r.Action.Kind {
	case ActForward:
		jr.Action = "forward"
		for _, out := range r.Action.OutIfaces {
			jr.Out = append(jr.Out, int32(out))
		}
	case ActDrop:
		jr.Action = "drop"
	case ActDeliver:
		jr.Action = "deliver"
	}
	if tr := r.Action.Transform; tr != nil {
		jr.Transform = &TransformSpec{
			RewriteDst: tr.RewriteDst,
			RewriteSrc: tr.RewriteSrc,
			Addr:       tr.Addr.String(),
		}
	}
	return jr
}

// RuleSpecOf returns the wire-format spec of an existing rule, suitable
// as the payload of a delta add or modify operation.
func (n *Network) RuleSpecOf(id RuleID) RuleSpec {
	return ruleSpec(n.Rules[id])
}

// EncodeJSON writes the network (topology and rules) as JSON. Match sets
// are not serialized; they are recomputed on decode.
//
// The bytes are what encoding/json's Encoder with a one-space indent
// produces for jsonNetwork — same field order, omitempty rules and string
// escaping — written by a direct append encoder: the output is hashed
// into the network's fingerprint on every PUT, PATCH and coordinator
// push, where reflection plus the indent pass dominated. The test suite
// holds the struct-based encoder as the reference and compares the two
// byte for byte.
//
// The encoder hands w its output in jsonFlush-sized pieces instead of
// building the document whole: a fingerprint (w is a hash) then costs one
// small buffer, not two network-sized allocations per call.
func (n *Network) EncodeJSON(w io.Writer) error {
	e := &jsonEnc{w: w, buf: make([]byte, 0, 2*jsonFlush)}
	e.open('{')
	if n.Family() == hdr.V6 {
		e.key("family").str("ipv6")
	}
	e.array("devices", len(n.Devices), func(i int) {
		d := n.Devices[i]
		e.open('{')
		e.key("name").str(d.Name)
		e.key("role").str(string(d.Role))
		if d.ASN != 0 {
			e.key("asn").int(int64(d.ASN))
		}
		e.prefixes("loopbacks", d.Loopbacks)
		e.prefixes("subnets", d.Subnets)
		e.close('}')
	})
	e.array("ifaces", len(n.Ifaces), func(i int) {
		ifc := n.Ifaces[i]
		e.open('{')
		e.key("device").int(int64(ifc.Device))
		e.key("name").str(ifc.Name)
		if ifc.Addr.IsValid() {
			e.key("addr").prefix(ifc.Addr)
		}
		e.key("peer").int(int64(ifc.Peer))
		if ifc.External {
			e.key("external").raw("true")
		}
		e.close('}')
	})
	e.array("rules", len(n.Rules), func(i int) { e.rule(n.Rules[i]) })
	e.close('}')
	e.buf = append(e.buf, '\n')
	e.flush()
	return e.err
}

// jsonFlush is the buffered size at which jsonEnc writes out.
const jsonFlush = 32 << 10

// jsonEnc appends indented JSON: one space per nesting level, every
// member and element on its own line, empty containers closed in place.
type jsonEnc struct {
	w       io.Writer
	err     error // first write error; later output is dropped
	buf     []byte
	members []int // per open container: members written so far
}

func (e *jsonEnc) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *jsonEnc) raw(s string) { e.buf = append(e.buf, s...) }

func (e *jsonEnc) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

func (e *jsonEnc) open(c byte) {
	e.buf = append(e.buf, c)
	e.members = append(e.members, 0)
}

func (e *jsonEnc) close(c byte) {
	last := len(e.members) - 1
	wrote := e.members[last] > 0
	e.members = e.members[:last]
	if wrote {
		e.newline()
	}
	e.buf = append(e.buf, c)
}

func (e *jsonEnc) newline() {
	e.buf = append(e.buf, '\n')
	for range e.members {
		e.buf = append(e.buf, ' ')
	}
}

// elem starts the next element of the open array.
func (e *jsonEnc) elem() {
	if len(e.buf) >= jsonFlush {
		e.flush()
	}
	last := len(e.members) - 1
	if e.members[last] > 0 {
		e.buf = append(e.buf, ',')
	}
	e.members[last]++
	e.newline()
}

// key starts the next member of the open object. Keys are the literal
// field names above and need no escaping.
func (e *jsonEnc) key(k string) *jsonEnc {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"', ':', ' ')
	return e
}

// str appends a JSON string. Anything beyond printable ASCII without
// the characters encoding/json escapes goes through encoding/json
// itself, so escaping is its escaping by construction.
func (e *jsonEnc) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, q...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// array writes member k as an array of n elements, each written by
// elem; a nil slice (n == 0 here) encodes as null, as encoding/json does
// for a field without omitempty.
func (e *jsonEnc) array(k string, n int, elem func(i int)) {
	e.key(k)
	if n == 0 {
		e.raw("null")
		return
	}
	e.open('[')
	for i := 0; i < n; i++ {
		e.elem()
		elem(i)
	}
	e.close(']')
}

// prefix appends a prefix as a JSON string; its text is digits, hex
// letters and ".:/" only, so nothing needs escaping.
func (e *jsonEnc) prefix(p netip.Prefix) {
	e.buf = append(e.buf, '"')
	e.buf = p.AppendTo(e.buf)
	e.buf = append(e.buf, '"')
}

// prefixes writes an omitempty array of prefix strings.
func (e *jsonEnc) prefixes(k string, ps []netip.Prefix) {
	if len(ps) > 0 {
		e.array(k, len(ps), func(i int) { e.prefix(ps[i]) })
	}
}

// portRange writes an omitempty [lo, hi] pair.
func (e *jsonEnc) portRange(k string, lo, hi uint16) {
	if lo != 0 || hi != 65535 {
		e.array(k, 2, func(i int) { e.int(int64([2]uint16{lo, hi}[i])) })
	}
}

// rule writes one rule as ruleSpec would shape it.
func (e *jsonEnc) rule(r *Rule) {
	e.open('{')
	e.key("device").int(int64(r.Device))
	if r.Table == TableACL {
		e.key("table").str("acl")
	} else {
		e.key("table").str("fib")
	}
	m := r.Match
	e.key("match").open('{')
	if m.DstPrefix.IsValid() {
		e.key("dst").prefix(m.DstPrefix)
	}
	if m.SrcPrefix.IsValid() {
		e.key("src").prefix(m.SrcPrefix)
	}
	if m.Proto >= 0 {
		e.key("proto").int(int64(m.Proto))
	}
	e.portRange("dstPort", m.DstPortLo, m.DstPortHi)
	e.portRange("srcPort", m.SrcPortLo, m.SrcPortHi)
	e.close('}')
	e.key("action")
	switch r.Action.Kind {
	case ActForward:
		e.str("forward")
		if outs := r.Action.OutIfaces; len(outs) > 0 {
			e.array("out", len(outs), func(i int) { e.int(int64(outs[i])) })
		}
	case ActDrop:
		e.str("drop")
	case ActDeliver:
		e.str("deliver")
	default:
		e.str("")
	}
	if tr := r.Action.Transform; tr != nil {
		e.key("transform").open('{')
		if tr.RewriteDst {
			e.key("rewriteDst").raw("true")
		}
		if tr.RewriteSrc {
			e.key("rewriteSrc").raw("true")
		}
		e.key("addr").str(tr.Addr.String())
		e.close('}')
	}
	if r.Origin != "" {
		e.key("origin").str(string(r.Origin))
	}
	if r.Deny {
		e.key("deny").raw("true")
	}
	e.close('}')
}

// DecodeJSON reads a network from JSON, rebuilds it, and computes match
// sets. The result is frozen (no further rules can be added).
func DecodeJSON(r io.Reader) (*Network, error) {
	var jn jsonNetwork
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jn); err != nil {
		return nil, fmt.Errorf("netmodel: decode: %w", err)
	}
	var n *Network
	switch jn.Family {
	case "":
		n = New()
	case "ipv6":
		n = NewV6()
	default:
		return nil, fmt.Errorf("netmodel: unknown family %q", jn.Family)
	}
	for i, jd := range jn.Devices {
		if jd.Name == "" {
			return nil, fmt.Errorf("netmodel: device %d has no name", i)
		}
		dev := n.AddDevice(jd.Name, Role(jd.Role), jd.ASN)
		d := n.Device(dev)
		for _, s := range jd.Loopbacks {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return nil, fmt.Errorf("netmodel: device %s loopback: %w", jd.Name, err)
			}
			d.Loopbacks = append(d.Loopbacks, p)
		}
		for _, s := range jd.Subnets {
			p, err := netip.ParsePrefix(s)
			if err != nil {
				return nil, fmt.Errorf("netmodel: device %s subnet: %w", jd.Name, err)
			}
			d.Subnets = append(d.Subnets, p)
		}
	}
	for i, ji := range jn.Ifaces {
		if int(ji.Device) < 0 || int(ji.Device) >= len(n.Devices) {
			return nil, fmt.Errorf("netmodel: iface %d: device %d out of range", i, ji.Device)
		}
		id := n.AddIface(DeviceID(ji.Device), ji.Name)
		ifc := n.Iface(id)
		ifc.External = ji.External
		ifc.Peer = IfaceID(ji.Peer)
		var err error
		if ifc.Addr, err = parsePrefix(ji.Addr); err != nil {
			return nil, fmt.Errorf("netmodel: iface %d addr: %w", i, err)
		}
	}
	// Validate peer symmetry.
	for i, ifc := range n.Ifaces {
		if ifc.Peer == NoIface {
			continue
		}
		if int(ifc.Peer) < 0 || int(ifc.Peer) >= len(n.Ifaces) {
			return nil, fmt.Errorf("netmodel: iface %d: peer %d out of range", i, ifc.Peer)
		}
		if n.Iface(ifc.Peer).Peer != ifc.ID {
			return nil, fmt.Errorf("netmodel: iface %d: asymmetric peer link", i)
		}
	}
	for i, jr := range jn.Rules {
		def, err := n.ParseRuleSpec(jr)
		if err != nil {
			return nil, fmt.Errorf("netmodel: rule %d: %w", i, err)
		}
		n.addDef(def)
	}
	n.ComputeMatchSets()
	return n, nil
}
