package netmodel

import (
	"crypto/sha256"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

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
	if err == nil {
		err = n.checkFamily(m.DstPrefix.Addr(), m.SrcPrefix.Addr())
	}
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
		if err == nil {
			err = n.checkFamily(addr)
		}
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
// A frozen network keeps what it encoded (fillEncoding): the document up
// to the rules array, and each rule's element of it — which depends on
// the rule's own fields only, never on its ID or position. A mutation
// then costs the encoding of the rules it added or modified, and an
// encode of an unchanged network copies bytes. An unfrozen network, whose
// rules may still change in place, is encoded afresh every time. The
// same writer streams the document into the network's fingerprint
// (Digest).
//
// The encoder hands w its output in jsonFlush-sized pieces instead of
// building the document whole: a fingerprint (w is a hash) then costs one
// small buffer, not two network-sized allocations per call.
func (n *Network) EncodeJSON(w io.Writer) error {
	if n.matchSetsDone {
		n.fillEncoding()
	}
	e := &jsonEnc{w: w, buf: make([]byte, 0, 2*jsonFlush)}
	n.writeHead(e)
	n.writeRules(e, 0, nil)
	return e.err
}

// markEvery is the spacing, in rules, of a frozen network's fingerprint
// marks.
const markEvery = 512

// Digest returns the sha256 of the network's EncodeJSON bytes.
//
// A frozen network keeps marks: marks[i] is the hash's state after the
// document head, "rules": [ and the first i*markEvery rules. Rule IDs
// compact on removal and additions append, so Commit and SetAction drop
// only the marks past the first rule they change (dropMarks). Digest
// resumes from the last mark, hashes the kept bytes of the remaining
// rules and records the marks it passes. After a change at rule 0 it
// hashes every rule's kept bytes, as it would without marks.
func (n *Network) Digest() [sha256.Size]byte {
	h := sha256.New()
	if !n.matchSetsDone || len(n.Rules) == 0 { // no rules: no array for a mark to stand in
		_ = n.EncodeJSON(h) // a hash never fails a write
		return [sha256.Size]byte(h.Sum(nil))
	}
	n.fillEncoding()
	n.encMu.Lock()
	defer n.encMu.Unlock()
	e := &jsonEnc{w: h, buf: make([]byte, 0, 2*jsonFlush)}
	from := 0
	if k := len(n.marks) - 1; k >= 0 {
		_ = h.(encoding.BinaryUnmarshaler).UnmarshalBinary(n.marks[k]) // a state this hash marshaled
		from = k * markEvery
		e.members = append(e.members, 1, from) // inside the document and its rules array
	} else {
		n.writeHead(e)
	}
	n.writeRules(e, from, func() {
		e.flush()
		state, _ := h.(encoding.BinaryMarshaler).MarshalBinary() // a sha256 state always marshals
		n.marks = append(n.marks, state)
	})
	return [sha256.Size]byte(h.Sum(nil))
}

// dropMarks drops the fingerprint marks taken past rule first, the first
// rule a change touches.
func (n *Network) dropMarks(first int) {
	n.encMu.Lock()
	keep := min(len(n.marks), first/markEvery+1)
	clear(n.marks[keep:])
	n.marks = n.marks[:keep]
	n.encMu.Unlock()
}

// writeHead writes the document up to the rules array: a frozen
// network's kept bytes, which fillEncoding has filled, or a fresh
// encoding.
func (n *Network) writeHead(e *jsonEnc) {
	if !n.matchSetsDone {
		n.encodeHead(e)
		return
	}
	_, e.err = e.w.Write(n.encHead.buf)
	e.members = append(e.members, n.encHead.members...)
}

// writeRules writes the rules array from rule from on (opening it unless
// e already stands inside it), closes the document and flushes. A
// network without rules writes null, as encoding/json does for a nil
// slice. mark, when set, is called at the rule boundary the next mark
// belongs at.
func (n *Network) writeRules(e *jsonEnc, from int, mark func()) {
	if len(n.Rules) == 0 {
		e.key("rules").raw("null")
	} else {
		if len(e.members) == 1 {
			e.key("rules").open('[')
		}
		for i := from; ; i++ {
			if mark != nil && i == len(n.marks)*markEvery {
				mark()
			}
			if i == len(n.Rules) {
				break
			}
			e.elem()
			if n.matchSetsDone {
				e.buf = append(e.buf, n.Rules[i].enc...)
			} else {
				e.rule(n.Rules[i])
			}
		}
		e.close(']')
	}
	e.close('}')
	e.buf = append(e.buf, '\n')
	e.flush()
}

// encodeHead opens the document and writes every member before the
// rules array: the family, the devices and the interfaces.
func (n *Network) encodeHead(e *jsonEnc) {
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
}

// fillEncoding completes the encoding cache of a frozen network: the
// head on first use, then every rule without bytes — all of them the
// first time; after that the rules a commit added or modified and the
// ones SetAction rewired. Concurrent encodes of one network are safe:
// the fill runs under encMu, and encFull publishes it.
//
// Rules hold their bytes as pieces of shared slabs (ruleSlabs), and a
// slab lives while any rule of it survives later commits, so a long run
// of commits could pin far more bytes than the rules still use. Once the
// slabs allocated since the last repack pass one and a half times the
// live bytes, every rule's bytes move into fresh slabs.
func (n *Network) fillEncoding() {
	if n.encFull.Load() {
		return
	}
	n.encMu.Lock()
	defer n.encMu.Unlock()
	if n.encFull.Load() {
		return
	}
	if n.encHead.buf == nil {
		n.encodeHead(&n.encHead)
	}
	s := ruleSlabs{e: jsonEnc{members: make([]int, 2)}} // a rules element sits two containers deep
	for _, r := range n.Rules {
		if r.enc == "" {
			s.e.rule(r)
			s.done(r)
		}
	}
	s.cut()
	n.encSlabs += s.total
	live := 0
	for _, r := range n.Rules {
		live += len(r.enc)
	}
	if 2*n.encSlabs > 3*live {
		s.total = 0
		for _, r := range n.Rules {
			s.e.buf = append(s.e.buf, r.enc...)
			s.done(r)
		}
		s.cut()
		n.encSlabs = s.total
	}
	n.encFull.Store(true)
}

// ruleSlabs hands rules their encodings as pieces of shared strings: it
// collects the bytes of a batch of rules in one buffer and cuts a string
// from it every jsonFlush bytes or so, so a fill allocates what it keeps
// plus that buffer.
type ruleSlabs struct {
	e     jsonEnc
	batch []*Rule
	ends  []int // where each batch rule's bytes end in e.buf
	total int   // bytes cut into slabs
}

// done closes the bytes of r, the last rule written to s.e.buf.
func (s *ruleSlabs) done(r *Rule) {
	s.batch = append(s.batch, r)
	s.ends = append(s.ends, len(s.e.buf))
	if len(s.e.buf) >= jsonFlush {
		s.cut()
	}
}

// cut hands the batch its bytes.
func (s *ruleSlabs) cut() {
	slab := string(s.e.buf)
	start := 0
	for i, r := range s.batch {
		r.enc = slab[start:s.ends[i]]
		start = s.ends[i]
	}
	s.total += len(slab)
	s.e.buf, s.batch, s.ends = s.e.buf[:0], s.batch[:0], s.ends[:0]
}

// jsonFlush is the buffered size at which jsonEnc writes out.
const jsonFlush = 32 << 10

// jsonEnc appends indented JSON: one space per nesting level, every
// member and element on its own line, empty containers closed in place.
type jsonEnc struct {
	w       io.Writer // nil: everything stays in buf
	err     error     // first write error; later output is dropped
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
	if e.w != nil && len(e.buf) >= jsonFlush {
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
//
// The document is read by decodeWire, a reflection-free scanner that
// fills the wire structs exactly as encoding/json's Decoder would; the
// test suite holds that decoder as the reference (DecodeJSONReference)
// and compares the two on every network family and under fuzzing.
func DecodeJSON(r io.Reader) (*Network, error) {
	jn, err := decodeWire(r)
	if err != nil {
		return nil, err
	}
	return jn.build()
}

// build validates a decoded document and rebuilds the network it
// describes, match sets included. Nothing here reads the document's
// bytes, which are garbage by the time ComputeMatchSets runs; neither is
// jn once the rules are installed.
func (jn *jsonNetwork) build() (*Network, error) {
	var n *Network
	switch jn.Family {
	case "":
		n = New()
	case "ipv6":
		n = NewV6()
	default:
		return nil, fmt.Errorf("netmodel: unknown family %q", jn.Family)
	}
	n.Devices = make([]*Device, 0, len(jn.Devices))
	n.Ifaces = make([]*Interface, 0, len(jn.Ifaces))
	n.Rules = make([]*Rule, 0, len(jn.Rules))
	for i, jd := range jn.Devices {
		if jd.Name == "" {
			return nil, fmt.Errorf("netmodel: device %d has no name", i)
		}
		if _, dup := n.byName[jd.Name]; dup {
			return nil, fmt.Errorf("netmodel: device %d: duplicate name %q", i, jd.Name)
		}
		d := n.Device(n.AddDevice(jd.Name, Role(jd.Role), jd.ASN))
		var err error
		if d.Loopbacks, err = n.parsePrefixes(jd.Loopbacks); err != nil {
			return nil, fmt.Errorf("netmodel: device %s loopback: %w", jd.Name, err)
		}
		if d.Subnets, err = n.parsePrefixes(jd.Subnets); err != nil {
			return nil, fmt.Errorf("netmodel: device %s subnet: %w", jd.Name, err)
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
		if ifc.Addr, err = parsePrefix(ji.Addr); err == nil {
			err = n.checkFamily(ifc.Addr.Addr())
		}
		if err != nil {
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
	for i := range jn.Rules {
		def, err := n.ParseRuleSpec(jn.Rules[i])
		if err != nil {
			return nil, fmt.Errorf("netmodel: rule %d: %w", i, err)
		}
		n.addDef(def)
	}
	n.ComputeMatchSets()
	return n, nil
}

// parsePrefixes parses a device's loopback or subnet list.
func (n *Network) parsePrefixes(ss []string) ([]netip.Prefix, error) {
	var ps []netip.Prefix
	for _, s := range ss {
		p, err := n.prefix(s)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// prefix parses s as a prefix of the network's family.
func (n *Network) prefix(s string) (netip.Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err == nil {
		err = n.checkFamily(p.Addr())
	}
	return p, err
}

// checkFamily returns an error when an address is of the other family
// than the network's: hdr, which turns every match, rewrite, loopback
// and interface address into packets, panics on one. The zero Addr (an
// absent prefix) passes.
func (n *Network) checkFamily(addrs ...netip.Addr) error {
	v4 := n.Family() == hdr.V4
	for _, a := range addrs {
		if a.IsValid() && a.Is4() != v4 {
			return fmt.Errorf("%v is not an %v address", a, n.Family())
		}
	}
	return nil
}

// decodeWire reads a network document into its wire structs. It is the
// read-side twin of EncodeJSON's append encoder: encoding/json's Decoder
// with DisallowUnknownFields, minus reflection and minus a second pass
// over the bytes. For every input it fails exactly when that decoder
// fails (the error text differs but names the byte offset), and
// otherwise fills jsonNetwork with the same values. Go 1.24's rules,
// which decoding in place reproduces:
//
//   - Only the first value is read; a read error or bytes after it go
//     unseen. Empty input is io.EOF.
//   - Keys match their field case-insensitively (strings.EqualFold,
//     which folds K and ſ as encoding/json does); any other key fails.
//   - Integers must be integer literals in range; a fraction, an
//     exponent or another JSON type fails.
//   - null sets a slice or a pointer to nil and leaves anything else as
//     it was.
//   - A [2]int32 drops elements past the second (checking only their
//     syntax) and zeroes missing ones.
//   - A repeated key decodes again into the same struct, pointee or
//     slice elements; a slice is truncated to the new length, and []
//     is empty but not nil.
//
// Strings with escapes, control bytes or non-ASCII bytes are unquoted by
// encoding/json one token at a time, so escapes and invalid UTF-8 decode
// as there by construction — the fallback EncodeJSON's str uses too.
// Every other string is interned: a network file repeats its tables,
// actions, origins and prefixes on every device.
func decodeWire(r io.Reader) (*jsonNetwork, error) {
	data, rerr := readDoc(r)
	if rerr != nil {
		// The struct decoder stops reading at the end of the first value:
		// it returns the read error only when the bytes before it leave
		// that value unfinished (and are not malformed already).
		var err error
		if data, err = firstValue(data); err != nil {
			return nil, err
		}
		if data == nil {
			return nil, fmt.Errorf("netmodel: decode: %w", rerr)
		}
	}
	d := wireDec{data: data, strs: make([]string, 4096)}
	jn := new(jsonNetwork)
	if err := d.run(func() {
		d.begin()
		d.network(jn)
	}); err != nil {
		return nil, err
	}
	return jn, nil
}

// readDoc reads r to its end into one buffer, sized up front when the
// source knows its length (a file, a bytes or strings reader), so a
// document is read once instead of regrown; any other source (a request
// body) doubles it, as encoding/json's Decoder does.
func readDoc(r io.Reader) ([]byte, error) {
	size := 0
	switch src := r.(type) {
	case *os.File:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	case interface{ Len() int }:
		size = src.Len()
	}
	buf := make([]byte, 0, size+512)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf)+512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// firstValue returns data cut after its first value, nil when data ends
// before that value does, or the syntax error that comes first.
func firstValue(data []byte) ([]byte, error) {
	d := wireDec{data: data}
	start := 0
	err := d.run(func() {
		d.begin()
		start = d.pos
		d.skip()
	})
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return nil, nil
	case err != nil:
		return nil, err
	case data[start] != '{' && data[start] != '[' && d.pos == len(data):
		return nil, nil // a scalar ends at the byte after it
	}
	return data[:d.pos], nil
}

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// The wire names of each struct's fields, as their json tags give them.
var (
	networkKeys   = []string{"family", "devices", "ifaces", "rules"}
	deviceKeys    = []string{"name", "role", "asn", "loopbacks", "subnets"}
	ifaceKeys     = []string{"device", "name", "addr", "peer", "external"}
	ruleKeys      = []string{"device", "table", "match", "action", "out", "transform", "origin", "deny"}
	matchKeys     = []string{"dst", "src", "proto", "dstPort", "srcPort"}
	transformKeys = []string{"rewriteDst", "rewriteSrc", "addr"}
)

// wireDec is decodeWire's cursor over the document. A failure panics
// with a wireError, which run turns back into the error.
type wireDec struct {
	data  []byte
	pos   int
	depth int      // open arrays and objects
	strs  []string // interned plain strings, a direct-mapped cache
	ints  []int32  // slab for int32 lists (makeElems)
}

type wireError struct{ err error }

func (d *wireDec) run(f func()) (err error) {
	defer func() {
		if e := recover(); e != nil {
			we, ok := e.(wireError)
			if !ok {
				panic(e)
			}
			err = we.err
		}
	}()
	f()
	return nil
}

func (d *wireDec) fail(format string, args ...any) {
	panic(wireError{fmt.Errorf("netmodel: decode: offset %d: %s", d.pos, fmt.Sprintf(format, args...))})
}

// eof fails on input that ends inside the document.
func (d *wireDec) eof() {
	d.pos = len(d.data)
	panic(wireError{fmt.Errorf("netmodel: decode: offset %d: %w", d.pos, io.ErrUnexpectedEOF)})
}

// begin skips the whitespace before the document; there must be one.
func (d *wireDec) begin() {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
	if d.pos == len(d.data) {
		panic(wireError{fmt.Errorf("netmodel: decode: %w", io.EOF)})
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// next skips whitespace and returns the byte at the cursor.
func (d *wireDec) next() byte {
	for d.pos < len(d.data) {
		if c := d.data[d.pos]; !isSpace(c) {
			return c
		}
		d.pos++
	}
	d.eof()
	return 0
}

// mismatch fails on a value of the wrong JSON type (or no value at all).
func (d *wireDec) mismatch(c byte, want string) {
	d.fail("cannot decode a value starting %q into %s", c, want)
}

// open enters the array or object at the cursor.
func (d *wireDec) open() {
	if d.depth++; d.depth > maxWireDepth {
		d.fail("exceeded max depth")
	}
	d.pos++
}

// closing consumes the byte that ends a member or element: true at the
// container's closing byte, false at a comma.
func (d *wireDec) closing(end byte) bool {
	switch d.next() {
	case ',':
		d.pos++
		return false
	case end:
		d.pos++
		d.depth--
		return true
	}
	d.fail("expected , or %c", end)
	return false
}

// object decodes a value into a struct whose wire names are keys: an
// object calls field with the canonical name of each member's key, the
// cursor on its value; null leaves the struct as it was.
func (d *wireDec) object(keys []string, field func(key string)) {
	switch c := d.next(); c {
	case 'n':
		d.literal("null")
		return
	case '{':
	default:
		d.mismatch(c, "object")
	}
	d.open()
	if d.next() == '}' {
		d.closing('}')
		return
	}
	for {
		if d.next() != '"' {
			d.fail("expected object key")
		}
		k := d.key(keys)
		if d.next() != ':' {
			d.fail("expected : after object key")
		}
		d.pos++
		field(k)
		if d.closing('}') {
			return
		}
	}
}

// array calls elem once per element of the array at the cursor, with
// the cursor on the element.
func (d *wireDec) array(elem func()) {
	d.open()
	if d.next() == ']' {
		d.closing(']')
		return
	}
	for {
		elem()
		if d.closing(']') {
			return
		}
	}
}

// key reads the object key at the cursor and returns the field it names.
func (d *wireDec) key(keys []string) string {
	at := d.pos
	if raw, ok := d.plain(); ok {
		for _, k := range keys {
			if asciiEqualFold(raw, k) {
				return k
			}
		}
		d.pos = at
		d.fail("unknown field %q", raw)
	}
	s := d.unquote()
	for _, k := range keys {
		if strings.EqualFold(s, k) {
			return k
		}
	}
	d.pos = at
	d.fail("unknown field %q", s)
	return ""
}

// asciiEqualFold reports whether the ASCII key b names the field k.
func asciiEqualFold(b []byte, k string) bool {
	if len(b) != len(k) {
		return false
	}
	for i, c := range b {
		f := k[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= f && f <= 'Z' {
			f += 'a' - 'A'
		}
		if c != f {
			return false
		}
	}
	return true
}

// plain consumes the string at the cursor and returns its contents when
// they are ASCII without control bytes or escapes; otherwise it consumes
// nothing and returns false.
func (d *wireDec) plain() ([]byte, bool) {
	for i := d.pos + 1; i < len(d.data); i++ {
		if c := d.data[i]; c == '"' {
			s := d.data[d.pos+1 : i]
			d.pos = i + 1
			return s, true
		} else if c < 0x20 || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	return nil, false
}

// unquote consumes the string at the cursor and returns it as
// encoding/json unquotes it.
func (d *wireDec) unquote() string {
	end := d.stringEnd()
	var s string
	if err := json.Unmarshal(d.data[d.pos:end], &s); err != nil {
		d.fail("%v", err)
	}
	d.pos = end
	return s
}

// stringEnd returns the offset after the string at the cursor, checking
// its syntax as encoding/json's scanner does.
func (d *wireDec) stringEnd() int {
	for i := d.pos + 1; i < len(d.data); {
		c := d.data[i]
		i++
		switch {
		case c == '"':
			return i
		case c == '\\':
			i = d.escapeEnd(i)
		case c < 0x20:
			d.pos = i - 1
			d.fail("invalid character %q in string literal", c)
		}
	}
	d.eof()
	return 0
}

// escapeEnd checks the escape whose code is at data[i] (past the
// backslash) and returns the offset after it.
func (d *wireDec) escapeEnd(i int) int {
	if i == len(d.data) {
		d.eof()
	}
	switch d.data[i] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return i + 1
	case 'u':
		for j := i + 1; j < i+5; j++ {
			if j == len(d.data) {
				d.eof()
			}
			if c := d.data[j] | 0x20; !isDigit(d.data[j]) && (c < 'a' || c > 'f') {
				d.pos = j
				d.fail("invalid character %q in \\u hexadecimal character escape", d.data[j])
			}
		}
		return i + 5
	}
	d.pos = i
	d.fail("invalid character %q in string escape code", d.data[i])
	return 0
}

// literal consumes the literal w (true, false or null).
func (d *wireDec) literal(w string) {
	for i := 0; i < len(w); i++ {
		if d.pos == len(d.data) {
			d.eof()
		}
		if d.data[d.pos] != w[i] {
			d.fail("invalid character %q in literal %s", d.data[d.pos], w)
		}
		d.pos++
	}
}

// number consumes the number at the cursor and returns its text and
// whether it is an integer literal (no fraction, no exponent).
func (d *wireDec) number() ([]byte, bool) {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
	}
	if d.pos < len(d.data) && d.data[d.pos] == '0' {
		d.pos++
	} else {
		d.digits()
	}
	integer := true
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		integer = false
		d.pos++
		d.digits()
	}
	if d.pos < len(d.data) && d.data[d.pos]|0x20 == 'e' {
		integer = false
		if d.pos++; d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		d.digits()
	}
	return d.data[start:d.pos], integer
}

// digits consumes a run of one or more digits.
func (d *wireDec) digits() {
	if d.pos == len(d.data) {
		d.eof()
	}
	if !isDigit(d.data[d.pos]) {
		d.fail("invalid character %q in numeric literal", d.data[d.pos])
	}
	for d.pos < len(d.data) && isDigit(d.data[d.pos]) {
		d.pos++
	}
}

// integer decodes an integer field's value, which must be an integer
// literal in [lo, hi]; it reports false on null, which leaves the field
// as it was. A sign on an unsigned field fails even on zero, as
// strconv.ParseUint does.
func (d *wireDec) integer(lo, hi int64, into string) (int64, bool) {
	switch c := d.next(); {
	case c == 'n':
		d.literal("null")
		return 0, false
	case c != '-' && !isDigit(c):
		d.mismatch(c, into)
	}
	at := d.pos
	text, ok := d.number()
	digits, neg := text, text[0] == '-'
	if neg {
		digits = text[1:]
		ok = ok && lo < 0
	}
	var v int64
	for i := 0; ok && i < len(digits); i++ {
		v = v*10 + int64(digits[i]-'0')
		ok = v <= math.MaxUint32 // out of any 32-bit range; stop before int64 overflows
	}
	if neg {
		v = -v
	}
	if !ok || v < lo || v > hi {
		d.pos = at
		d.fail("cannot decode number %s into %s", text, into)
	}
	return v, true
}

// skip consumes one value of any type, checking only its syntax: what
// encoding/json does with the elements past the end of an array type.
func (d *wireDec) skip() {
	switch c := d.next(); {
	case c == '{':
		d.open()
		if d.next() == '}' {
			d.closing('}')
			return
		}
		for {
			if d.next() != '"' {
				d.fail("expected object key")
			}
			d.pos = d.stringEnd()
			if d.next() != ':' {
				d.fail("expected : after object key")
			}
			d.pos++
			d.skip()
			if d.closing('}') {
				return
			}
		}
	case c == '[':
		d.array(d.skip)
	case c == '"':
		d.pos = d.stringEnd()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		d.number()
	default:
		d.fail("invalid character %q looking for beginning of value", c)
	}
}

func (d *wireDec) str(p *string) {
	switch c := d.next(); c {
	case '"':
		if raw, ok := d.plain(); ok {
			*p = d.intern(raw)
		} else {
			*p = d.unquote()
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch(c, "string")
	}
}

// intern returns b as a string, shared with the last string of the same
// bytes that hashed to the same slot.
func (d *wireDec) intern(b []byte) string {
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	s := &d.strs[h%uint32(len(d.strs))]
	if *s != string(b) {
		*s = string(b)
	}
	return *s
}

func (d *wireDec) i32(p *int32) {
	if v, ok := d.integer(math.MinInt32, math.MaxInt32, "int32"); ok {
		*p = int32(v)
	}
}

func (d *wireDec) u32(p *uint32) {
	if v, ok := d.integer(0, math.MaxUint32, "uint32"); ok {
		*p = uint32(v)
	}
}

func (d *wireDec) boolean(p *bool) {
	switch c := d.next(); c {
	case 't':
		d.literal("true")
		*p = true
	case 'f':
		d.literal("false")
		*p = false
	case 'n':
		d.literal("null")
	default:
		d.mismatch(c, "bool")
	}
}

// null consumes a null and reports true, or reports false on any other
// value: what a slice or a pointer checks first.
func (d *wireDec) null() bool {
	if d.next() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// slice decodes into a slice: null sets nil; an array decodes element i
// into the existing element when the slice's capacity reaches it (a
// repeated key decodes again into the same elements) and into a zero one
// otherwise, then truncates the slice to the array's length.
func slice[T any](d *wireDec, s *[]T, elem func(*T)) {
	if d.null() {
		*s = nil
		return
	}
	if c := d.next(); c != '[' {
		d.mismatch(c, "array")
	}
	v, i, start := *s, 0, d.pos
	d.array(func() {
		if i == cap(v) {
			// Double, but not past the elements the rest of the document
			// holds at the density so far: the last array — a network's
			// rules — then ends about its own size.
			n := max(4, 2*i)
			if i > 0 {
				est := i * (len(d.data) - d.pos) / (d.pos - start)
				n = max(i+1, min(n, i+est+est/8))
			}
			nv := makeElems[T](d, i+1, n)
			copy(nv, v)
			v = nv
		} else if i >= len(v) {
			v = v[:i+1]
		}
		elem(&v[i])
		i++
	})
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
}

// ptr decodes into a pointer: null sets nil; any other value decodes into
// the existing pointee or a new one.
func ptr[T any](d *wireDec, pp **T, decode func(*T)) {
	if d.null() {
		*pp = nil
		return
	}
	if *pp == nil {
		*pp = new(T)
	}
	decode(*pp)
}

// makeElems returns a zeroed slice of length l and capacity n. The int32
// lists — a rule's out interfaces, one list per forwarding rule — are
// carved from a shared slab instead of allocated one by one.
func makeElems[T any](d *wireDec, l, n int) []T {
	slab, ok := any(&d.ints).(*[]T)
	if !ok {
		return make([]T, l, n)
	}
	if len(*slab) < n {
		*slab = make([]T, max(n, 4096))
	}
	s := (*slab)[:l:n]
	*slab = (*slab)[n:]
	return s
}

func (d *wireDec) network(jn *jsonNetwork) {
	d.object(networkKeys, func(k string) {
		switch k {
		case "family":
			d.str(&jn.Family)
		case "devices":
			slice(d, &jn.Devices, d.device)
		case "ifaces":
			slice(d, &jn.Ifaces, d.iface)
		case "rules":
			slice(d, &jn.Rules, d.rule)
		}
	})
}

func (d *wireDec) device(jd *jsonDevice) {
	d.object(deviceKeys, func(k string) {
		switch k {
		case "name":
			d.str(&jd.Name)
		case "role":
			d.str(&jd.Role)
		case "asn":
			d.u32(&jd.ASN)
		case "loopbacks":
			slice(d, &jd.Loopbacks, d.str)
		case "subnets":
			slice(d, &jd.Subnets, d.str)
		}
	})
}

func (d *wireDec) iface(ji *jsonIface) {
	d.object(ifaceKeys, func(k string) {
		switch k {
		case "device":
			d.i32(&ji.Device)
		case "name":
			d.str(&ji.Name)
		case "addr":
			d.str(&ji.Addr)
		case "peer":
			d.i32(&ji.Peer)
		case "external":
			d.boolean(&ji.External)
		}
	})
}

func (d *wireDec) rule(jr *RuleSpec) {
	d.object(ruleKeys, func(k string) {
		switch k {
		case "device":
			d.i32(&jr.Device)
		case "table":
			d.str(&jr.Table)
		case "match":
			d.match(&jr.Match)
		case "action":
			d.str(&jr.Action)
		case "out":
			slice(d, &jr.Out, d.i32)
		case "transform":
			ptr(d, &jr.Transform, d.transform)
		case "origin":
			d.str(&jr.Origin)
		case "deny":
			d.boolean(&jr.Deny)
		}
	})
}

func (d *wireDec) match(jm *MatchSpec) {
	d.object(matchKeys, func(k string) {
		switch k {
		case "dst":
			d.str(&jm.Dst)
		case "src":
			d.str(&jm.Src)
		case "proto":
			ptr(d, &jm.Proto, d.i32)
		case "dstPort":
			ptr(d, &jm.DstPort, d.pair)
		case "srcPort":
			ptr(d, &jm.SrcPort, d.pair)
		}
	})
}

func (d *wireDec) transform(t *TransformSpec) {
	d.object(transformKeys, func(k string) {
		switch k {
		case "rewriteDst":
			d.boolean(&t.RewriteDst)
		case "rewriteSrc":
			d.boolean(&t.RewriteSrc)
		case "addr":
			d.str(&t.Addr)
		}
	})
}

// pair decodes a port range: elements past the second are skipped and
// missing ones zeroed.
func (d *wireDec) pair(p *[2]int32) {
	if c := d.next(); c != '[' {
		d.mismatch(c, "[2]int32")
	}
	i := 0
	d.array(func() {
		if i < len(p) {
			d.i32(&p[i])
		} else {
			d.skip()
		}
		i++
	})
	for ; i < len(p); i++ {
		p[i] = 0
	}
}
