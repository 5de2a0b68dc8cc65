package netmodel

import (
	"fmt"
	"net/netip"
	"slices"

	"yardstick/internal/hdr"
)

// This file implements incremental mutation of a frozen network: the
// rule-level deltas of internal/delta (PATCH /network) bottom out here.
// A Mutation batches rule removals, modifications, and additions against
// the *current* rule universe and Commit applies them atomically:
//
//   - Rule IDs compact on removal (every higher ID shifts down) and
//     additions append at the end, so EncodeJSON/DecodeJSON of the
//     mutated network round-trips with identical IDs — the network stays
//     a fixed point of its own JSON encoding, which is what keeps
//     fingerprints well-defined and replicas rebuildable at any time.
//     Commit reports the old→new correspondence in MutationResult.Remap.
//
//   - Only the rules a change can reach are re-derived. A table's
//     derivation only ever reads rules of the same device, so every
//     other device keeps its raw and disjoint match sets verbatim — zero
//     BDD work. Within a touched device a changed ACL takes the ordered
//     walk again; a destination-only FIB re-derives its added and
//     re-prefixed rules and the immediate parents of every prefix that
//     entered or left it (fibDeriver.patch), and every other rule keeps
//     its set. The Match→set memo (matchSet) is keyed by pure match
//     values, never by rule identity.
//
//   - Survivors carry their encoding (json.go): an encode after a commit
//     writes the bytes of the rules it added or modified, and copies the
//     rest. The rules before the first one a commit changes keep their
//     IDs, so the fingerprint marks up to it stay: a fingerprint after a
//     commit hashes the kept bytes from that rule on.
//
//   - Commit is copy-on-write: it stages a complete new rule universe
//     (fresh Rule structs; untouched ones share their hdr.Set values)
//     and performs all BDD recomputation against the staged copy before
//     publishing anything. A watched-context cancellation panic
//     mid-derivation unwinds leaving the network exactly as it was
//     (the match memo may have grown — it is a pure value cache, so
//     extra entries are harmless). The publish step itself is pure
//     pointer and slice assignment and cannot panic.
type Mutation struct {
	n        *Network
	removed  map[RuleID]bool
	modified map[RuleID]RuleDef
	added    []RuleDef
	done     bool
}

// NoRule marks "no rule" in remap tables: the image of a removed rule.
const NoRule RuleID = -1

// MutationResult reports what Commit did.
type MutationResult struct {
	// Remap maps every pre-mutation rule ID to its post-mutation ID,
	// NoRule for removed rules. len(Remap) is the old rule count.
	Remap []RuleID
	// Added holds the new IDs of added rules, in Add-call order.
	Added []RuleID
	// Touched lists the devices owning a removed, modified or added
	// rule, ascending: the devices whose tables changed.
	Touched []DeviceID
}

// BeginMutation starts a batch of rule-level changes against a frozen
// network (ComputeMatchSets must have run — mutation exists precisely to
// avoid re-freezing from scratch).
func (n *Network) BeginMutation() *Mutation {
	if !n.matchSetsDone {
		panic("netmodel: BeginMutation before ComputeMatchSets")
	}
	return &Mutation{
		n:        n,
		removed:  make(map[RuleID]bool),
		modified: make(map[RuleID]RuleDef),
	}
}

func (m *Mutation) checkOpen() error {
	if m.done {
		return fmt.Errorf("netmodel: mutation already committed")
	}
	return nil
}

func (m *Mutation) checkTarget(id RuleID) error {
	if int(id) < 0 || int(id) >= len(m.n.Rules) {
		return fmt.Errorf("netmodel: rule %d out of range", id)
	}
	if m.removed[id] {
		return fmt.Errorf("netmodel: rule %d already removed in this mutation", id)
	}
	if _, mod := m.modified[id]; mod {
		return fmt.Errorf("netmodel: rule %d already modified in this mutation", id)
	}
	return nil
}

// validateDef checks a rule definition against the network's topology.
func (n *Network) validateDef(def RuleDef) error {
	if int(def.Device) < 0 || int(def.Device) >= len(n.Devices) {
		return fmt.Errorf("device %d out of range", def.Device)
	}
	if def.Table != TableACL && def.Table != TableFIB {
		return fmt.Errorf("unknown table %d", def.Table)
	}
	if def.Table == TableFIB && def.Action.Kind == ActForward {
		if len(def.Action.OutIfaces) == 0 {
			return fmt.Errorf("forward with no out interfaces")
		}
		for _, out := range def.Action.OutIfaces {
			if int(out) < 0 || int(out) >= len(n.Ifaces) {
				return fmt.Errorf("out iface %d out of range", out)
			}
			if n.Ifaces[out].Device != def.Device {
				return fmt.Errorf("out iface %d not on device %d", out, def.Device)
			}
		}
	}
	return nil
}

// Remove schedules a rule for removal. The rule's ID refers to the
// pre-mutation universe; higher IDs compact down on Commit.
func (m *Mutation) Remove(id RuleID) error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.checkTarget(id); err != nil {
		return err
	}
	m.removed[id] = true
	return nil
}

// Modify schedules an in-place redefinition of a rule: match, action,
// origin, and deny flag are replaced; the rule keeps its device, table,
// and position (ID compaction aside). Moving a rule between devices or
// tables is a Remove plus an Add.
func (m *Mutation) Modify(id RuleID, def RuleDef) error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.checkTarget(id); err != nil {
		return err
	}
	old := m.n.Rules[id]
	if def.Device != old.Device {
		return fmt.Errorf("netmodel: modify rule %d: device %d does not match rule's device %d", id, def.Device, old.Device)
	}
	if def.Table != old.Table {
		return fmt.Errorf("netmodel: modify rule %d: table change not allowed (remove and add instead)", id)
	}
	if err := m.n.validateDef(def); err != nil {
		return fmt.Errorf("netmodel: modify rule %d: %w", id, err)
	}
	m.modified[id] = def
	return nil
}

// Add schedules a new rule. It is appended to its device's table: ACL
// entries evaluate after the device's existing entries; FIB entries slot
// into longest-prefix-match order as usual.
func (m *Mutation) Add(def RuleDef) error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if err := m.n.validateDef(def); err != nil {
		return fmt.Errorf("netmodel: add rule: %w", err)
	}
	m.added = append(m.added, def)
	return nil
}

// Pending reports the batch size: removed, modified, added.
func (m *Mutation) Pending() (removed, modified, added int) {
	return len(m.removed), len(m.modified), len(m.added)
}

// Commit applies the batch atomically. On return the network is frozen
// again with every rule's disjoint match set valid. If the symbolic
// derivation panics (a watched-context cancellation), the
// panic propagates and the network is untouched; the mutation may not be
// reused either way.
func (m *Mutation) Commit() (MutationResult, error) {
	if err := m.checkOpen(); err != nil {
		return MutationResult{}, err
	}
	m.done = true
	n := m.n

	// The tables that change, per device, and the first rule that does:
	// additions start at the old rule count.
	const aclChanged, fibChanged = 1, 2
	touched := make([]uint8, len(n.Devices))
	mark := func(dev DeviceID, t TableKind) {
		if t == TableACL {
			touched[dev] |= aclChanged
		} else {
			touched[dev] |= fibChanged
		}
	}
	first := len(n.Rules)
	for id := range m.removed {
		mark(n.Rules[id].Device, n.Rules[id].Table)
		first = min(first, int(id))
	}
	for id := range m.modified {
		mark(n.Rules[id].Device, n.Rules[id].Table)
		first = min(first, int(id))
	}
	for _, def := range m.added {
		mark(def.Device, def.Table)
	}

	// Stage the new rule universe: survivors compact in ID order,
	// additions append. Every staged rule is a fresh struct, so nothing
	// below mutates the live network.
	// The structs come from one slab: a commit replaces the whole
	// universe, so it lives and dies together, and a batch that touches
	// every device costs one allocation instead of one per rule.
	// A survivor keeps its sets and its encoding; a modified rule loses
	// its encoding, and its sets too when its match fields changed —
	// it then moves, leaving its place in the FIB order to be inserted
	// again like an addition.
	remap := make([]RuleID, len(n.Rules))
	for id := range m.removed {
		remap[id] = NoRule
	}
	slab := make([]Rule, len(n.Rules)-len(m.removed)+len(m.added))
	newRules := make([]*Rule, 0, len(slab))
	for _, r := range n.Rules {
		if remap[r.ID] == NoRule {
			continue
		}
		nr := &slab[len(newRules)]
		*nr = *r
		nr.ID = RuleID(len(newRules))
		remap[r.ID] = nr.ID
		newRules = append(newRules, nr)
	}
	var moved []RuleID // new IDs
	for id, def := range m.modified {
		nr := newRules[remap[id]]
		nr.Match = def.Match
		nr.Action = def.Action
		nr.Origin = def.Origin
		nr.Deny = def.Deny
		nr.enc = ""
		if def.Match != n.Rules[id].Match {
			nr.raw, nr.match, nr.matchOK = hdr.Set{}, hdr.Set{}, false
			if nr.Table == TableFIB {
				moved = append(moved, nr.ID)
			}
		}
	}
	addedIDs := make([]RuleID, 0, len(m.added))
	for _, def := range m.added {
		id := RuleID(len(newRules))
		nr := &slab[id]
		*nr = Rule{
			ID:     id,
			Device: def.Device,
			Table:  def.Table,
			Match:  def.Match,
			Action: def.Action,
			Origin: def.Origin,
			Deny:   def.Deny,
		}
		newRules = append(newRules, nr)
		addedIDs = append(addedIDs, id)
	}

	// Stage per-device table orders. Compaction preserves the relative
	// order of survivors, so a table's remapped order is still sorted;
	// additions go at the end of an ACL, and a FIB's insertions (moved
	// and added rules) are sorted among themselves and merged in. For an
	// untouched device the remapped order is exactly the old one.
	newACL := make([][]RuleID, len(n.Devices))
	newFIB := make([][]RuleID, len(n.Devices))
	insert := make([][]RuleID, len(n.Devices))
	for _, id := range moved {
		dev := newRules[id].Device
		insert[dev] = append(insert[dev], id)
	}
	for i, def := range m.added {
		if def.Table == TableACL {
			newACL[def.Device] = append(newACL[def.Device], addedIDs[i])
		} else {
			insert[def.Device] = append(insert[def.Device], addedIDs[i])
		}
	}
	for di, d := range n.Devices {
		acl := make([]RuleID, 0, len(d.ACL)+len(newACL[di]))
		for _, id := range d.ACL {
			if nid := remap[id]; nid != NoRule {
				acl = append(acl, nid)
			}
		}
		newACL[di] = append(acl, newACL[di]...)
		newFIB[di] = mergeFIB(newRules, d.FIB, remap, insert[di])
	}

	// All BDD work happens here, against the staged copy. A panic
	// unwinds with the live network untouched. A changed ACL takes the
	// ordered walk again; a changed FIB re-derives the rules its change
	// reaches; every other table keeps its index with its IDs compacted.
	fibs := fibDeriver{n: n}
	newIndex := make([]devIndex, len(n.Devices))
	var touchedList []DeviceID
	for di := range n.Devices {
		old := &n.index[di]
		if touched[di]&aclChanged != 0 {
			n.computeTable(newRules, newACL[di])
		}
		if touched[di]&fibChanged != 0 {
			newIndex[di] = fibs.update(newRules, newFIB[di], old, remap, insert[di])
		} else {
			newIndex[di] = devIndex{dstOnly: old.dstOnly, lens: old.lens, pfx: old.pfx, byPrefix: remapIDs(old.byPrefix, remap)}
		}
		if touched[di] == 0 {
			// Classes hold sets and actions, and their numbering
			// positions, never rule IDs.
			newIndex[di].cls, newIndex[di].fwd = old.cls, old.fwd
		} else {
			touchedList = append(touchedList, DeviceID(di))
		}
	}

	// Publish: assignments only, no panic sources. A touched device gets
	// its new index and loses its action classes and their numbering
	// (the next flood or lookup rebuilds them). The encoding cache stays full unless a rule came
	// without bytes; the fingerprint marks past the first changed rule
	// go.
	for di, d := range n.Devices {
		d.ACL = newACL[di]
		d.FIB = newFIB[di]
	}
	n.Rules = newRules
	n.index = newIndex
	if len(m.modified)+len(m.added) > 0 {
		n.encFull.Store(false)
	}
	n.dropMarks(first)
	n.generation++

	return MutationResult{Remap: remap, Added: addedIDs, Touched: touchedList}, nil
}

// remapIDs carries an ID list across a commit that removed none of its
// rules.
func remapIDs(ids []RuleID, remap []RuleID) []RuleID {
	out := make([]RuleID, len(ids))
	for i, id := range ids {
		out[i] = remap[id]
	}
	return out
}

// mergeFIB stages a FIB's evaluation order: the surviving rules of old
// that did not move, remapped, merged with the new IDs in insert (moved
// and added rules). Both runs are sorted by fibOrder — the survivors
// because compaction keeps their relative order — so the merge equals a
// sort of the whole table.
func mergeFIB(rules []*Rule, old, remap, insert []RuleID) []RuleID {
	slices.SortFunc(insert, func(a, b RuleID) int { return fibOrder(rules, a, b) })
	out := make([]RuleID, 0, len(old)+len(insert))
	j := 0
	for _, id := range old {
		nid := remap[id]
		if nid == NoRule || !rules[nid].matchOK {
			continue // removed, or moved and so among insert
		}
		for j < len(insert) && fibOrder(rules, insert[j], nid) < 0 {
			out = append(out, insert[j])
			j++
		}
		out = append(out, nid)
	}
	return append(out, insert[j:]...)
}

// update re-derives a FIB that a commit changed: rules is the staged
// universe, fib the staged order, old the table's index before the
// commit and insert its moved and added rules. A table that was and
// stays destination-only is patched (patch); any other is derived whole.
func (d *fibDeriver) update(rules []*Rule, fib []RuleID, old *devIndex, remap, insert []RuleID) devIndex {
	if old.dstOnly {
		if ix, ok := d.patch(rules, old, remap, insert); ok {
			return ix
		}
	}
	return d.derive(rules, fib)
}

// patch re-derives a destination-only FIB after a commit, touching only
// the rules whose disjoint match set can have changed. M[r] = raw(r) −
// ⋃ raw(immediate children) (derive), so a rule's set changes only when
// its own match does or when its immediate children do; and a prefix
// that enters or leaves the table changes the children of exactly one
// rule, its immediate parent. So the inserted rules and the parents of
// every inserted and every departed prefix are re-derived, and nothing
// else. The index is built first, with no BDD work: ok is false — and
// nothing was derived — when an insertion breaks the table's shape (a
// match on more than a destination, or a repeated prefix).
func (d *fibDeriver) patch(rules []*Rule, old *devIndex, remap, insert []RuleID) (ix devIndex, ok bool) {
	ins := make([]hdr.PrefixKey, len(insert))
	for i, id := range insert {
		m := rules[id].Match
		if !dstOnlyMatch(m) {
			return devIndex{}, false
		}
		ins[i] = hdr.KeyOf(m.DstPrefix.Masked())
	}
	// insert is in FIB order; the merge wants prefix order.
	order := make([]int, len(insert))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return ins[a].Compare(ins[b]) })

	size := len(old.byPrefix) + len(insert)
	ix = devIndex{dstOnly: true, byPrefix: make([]RuleID, 0, size), pfx: make([]hdr.PrefixKey, 0, size)}
	var at []int             // positions of the inserted rules
	var gone []hdr.PrefixKey // prefixes that left the table
	push := func(id RuleID, p hdr.PrefixKey) {
		ix.byPrefix = append(ix.byPrefix, id)
		ix.pfx = append(ix.pfx, p)
	}
	j := 0
	for k, id := range old.byPrefix {
		p := old.pfx[k]
		nid := remap[id]
		if nid == NoRule || !rules[nid].matchOK {
			gone = append(gone, p)
			continue
		}
		for ; j < len(order) && ins[order[j]].Compare(p) <= 0; j++ {
			at = append(at, len(ix.pfx))
			push(insert[order[j]], ins[order[j]])
		}
		push(nid, p)
	}
	for ; j < len(order); j++ {
		at = append(at, len(ix.pfx))
		push(insert[order[j]], ins[order[j]])
	}
	for k := 1; k < len(ix.pfx); k++ {
		if ix.pfx[k] == ix.pfx[k-1] {
			return devIndex{}, false // a repeated prefix
		}
	}
	ix.lens = prefixLens(ix.pfx)

	redo := slices.Clone(at)
	for _, k := range at {
		if par := ix.parent(ix.pfx[k]); par >= 0 {
			redo = append(redo, par)
		}
	}
	for _, p := range gone {
		if par := ix.parent(p); par >= 0 {
			redo = append(redo, par)
		}
	}
	slices.Sort(redo)
	redo = slices.Compact(redo)

	// BDD work: raw sets of the inserted rules first — a re-derived
	// parent reads them — then the re-derived match sets, in prefix
	// order.
	for _, k := range at {
		d.n.deriveRaw(rules[ix.byPrefix[k]])
	}
	for _, k := range redo {
		kids := d.kids[:0]
		for c, stop := k+1, ix.end(k); c < stop; c = ix.end(c) {
			kids = append(kids, rules[ix.byPrefix[c]].raw)
		}
		d.n.setMatch(rules[ix.byPrefix[k]], kids)
		d.kids = kids
	}
	return ix, true
}

// setMatch sets a destination-only FIB rule's disjoint match set by
// folding the raw sets of its immediate children. patch folds where
// derive walks (hdr.Space.LongestMatch): after a commit the op cache
// still holds the unions this table's earlier derivation and floods
// made, and a fold answered from it costs fewer ops than a walk that
// rebuilds every node.
func (n *Network) setMatch(r *Rule, kids []hdr.Set) {
	r.match = r.raw
	if len(kids) > 0 {
		r.match = r.raw.Diff(n.Space.UnionAll(kids))
	}
	r.matchOK = true
	n.derived++
}

// end returns the position after the subtree of the prefix at k: the
// prefixes inside it follow it immediately in prefix order.
func (ix *devIndex) end(k int) int {
	p := ix.pfx[k]
	k++
	for k < len(ix.pfx) && p.Contains(ix.pfx[k]) {
		k++
	}
	return k
}

// parent returns the position of the longest prefix in the index that
// strictly contains p, or -1.
func (ix *devIndex) parent(p hdr.PrefixKey) int {
	for _, l := range ix.lens {
		if l >= p.Bits() {
			continue
		}
		if i, ok := ix.find(p.Truncate(l)); ok {
			return i
		}
	}
	return -1
}

// CloneTopology returns an unfrozen copy of the network's topology —
// devices, interfaces, loopbacks, and subnets, with identical IDs — in a
// fresh BDD space, with no rules. It is how control-plane replays
// (internal/bgp flap schedules) rebuild candidate forwarding state for
// the same physical network without disturbing the live one.
func (n *Network) CloneTopology() *Network {
	out := NewFamily(n.Family())
	for _, d := range n.Devices {
		id := out.AddDevice(d.Name, d.Role, d.ASN)
		nd := out.Devices[id]
		nd.Loopbacks = append([]netip.Prefix(nil), d.Loopbacks...)
		nd.Subnets = append([]netip.Prefix(nil), d.Subnets...)
	}
	for _, ifc := range n.Ifaces {
		id := out.AddIface(ifc.Device, ifc.Name)
		ni := out.Ifaces[id]
		ni.Addr = ifc.Addr
		ni.Peer = ifc.Peer
		ni.External = ifc.External
	}
	return out
}

// addDef installs a parsed rule definition on an unfrozen network
// (DecodeJSON's rule loop).
func (n *Network) addDef(def RuleDef) RuleID {
	if def.Table == TableACL {
		id := n.AddACLRule(def.Device, def.Match, def.Deny)
		n.Rules[id].Origin = def.Origin
		return id
	}
	return n.AddFIBRule(def.Device, def.Match, def.Action, def.Origin)
}
