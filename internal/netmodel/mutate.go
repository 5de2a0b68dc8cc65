package netmodel

import (
	"fmt"
	"net/netip"
	"sort"

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
//   - Only the tables of touched devices (those owning a removed,
//     modified, or added rule) are re-derived. Untouched rules keep
//     their existing raw and disjoint match sets verbatim — zero BDD
//     work — which is sound because a table's derivation only ever
//     reads rules of the same device, and the Match→set memo
//     (matchSet) is keyed by pure match values, never by rule identity.
//
//   - Commit is copy-on-write: it stages a complete new rule universe
//     (fresh Rule structs; untouched ones share their hdr.Set values)
//     and performs all BDD recomputation against the staged copy before
//     publishing anything. A budget trip or watched-context cancellation
//     panic mid-derivation unwinds leaving the network exactly as it
//     was (the match memo may have grown — it is a pure value cache, so
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
	// Touched lists the devices whose tables were re-derived, ascending.
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
// derivation panics (budget trip, watched-context cancellation), the
// panic propagates and the network is untouched; the mutation may not be
// reused either way.
func (m *Mutation) Commit() (MutationResult, error) {
	if err := m.checkOpen(); err != nil {
		return MutationResult{}, err
	}
	m.done = true
	n := m.n

	// Devices whose tables need re-deriving.
	touched := make(map[DeviceID]bool)
	for id := range m.removed {
		touched[n.Rules[id].Device] = true
	}
	for id := range m.modified {
		touched[n.Rules[id].Device] = true
	}
	for _, def := range m.added {
		touched[def.Device] = true
	}

	// Stage the new rule universe: survivors compact in ID order,
	// additions append. Every staged rule is a fresh struct, so nothing
	// below mutates the live network.
	// The structs come from one slab: a commit replaces the whole
	// universe, so it lives and dies together, and a batch that touches
	// every device costs one allocation instead of one per rule.
	remap := make([]RuleID, len(n.Rules))
	slab := make([]Rule, len(n.Rules)-len(m.removed)+len(m.added))
	newRules := make([]*Rule, 0, len(slab))
	for _, r := range n.Rules {
		if m.removed[r.ID] {
			remap[r.ID] = NoRule
			continue
		}
		nr := &slab[len(newRules)]
		*nr = *r
		nr.ID = RuleID(len(newRules))
		if def, ok := m.modified[r.ID]; ok {
			nr.Match = def.Match
			nr.Action = def.Action
			nr.Origin = def.Origin
			nr.Deny = def.Deny
			nr.raw = hdr.Set{}
		}
		if touched[nr.Device] {
			// The disjoint set is re-derived; the raw set is a function
			// of the match fields alone and stays unless they changed.
			nr.matchOK = false
			nr.match = hdr.Set{}
		}
		remap[r.ID] = nr.ID
		newRules = append(newRules, nr)
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

	// Stage per-device table orders: surviving rules keep their relative
	// order (compaction preserves it), additions go at the end, and
	// touched FIBs re-sort with the ComputeMatchSets comparator. For
	// untouched devices the remapped order is exactly the old one.
	newACL := make([][]RuleID, len(n.Devices))
	newFIB := make([][]RuleID, len(n.Devices))
	for di, d := range n.Devices {
		newACL[di] = make([]RuleID, 0, len(d.ACL))
		newFIB[di] = make([]RuleID, 0, len(d.FIB))
		for _, id := range d.ACL {
			if nid := remap[id]; nid != NoRule {
				newACL[di] = append(newACL[di], nid)
			}
		}
		for _, id := range d.FIB {
			if nid := remap[id]; nid != NoRule {
				newFIB[di] = append(newFIB[di], nid)
			}
		}
	}
	for i, def := range m.added {
		if def.Table == TableACL {
			newACL[def.Device] = append(newACL[def.Device], addedIDs[i])
		} else {
			newFIB[def.Device] = append(newFIB[def.Device], addedIDs[i])
		}
	}
	touchedList := make([]DeviceID, 0, len(touched))
	for dev := range touched {
		touchedList = append(touchedList, dev)
	}
	sort.Slice(touchedList, func(i, j int) bool { return touchedList[i] < touchedList[j] })

	// All BDD work happens here, against the staged copy. A panic
	// unwinds with the live network untouched.
	fibs := fibDeriver{n: n}
	newIndex := make([]devIndex, len(touchedList))
	for i, dev := range touchedList {
		sortFIB(newRules, newFIB[dev])
		n.computeTable(newRules, newACL[dev])
		newIndex[i] = fibs.derive(newRules, newFIB[dev])
	}

	// Publish: assignments and map work only, no panic sources. The FIB
	// index is refilled in place over the new universe; IDs compact, so
	// every entry changes, but the map keeps its storage.
	for di, d := range n.Devices {
		d.ACL = newACL[di]
		d.FIB = newFIB[di]
	}
	n.Rules = newRules
	clear(n.fibIndex)
	fillFIBIndex(n.fibIndex, newRules)
	// A touched device gets its new table shape and loses its action
	// classes (the next flood rebuilds them); every other device keeps
	// both — classes hold sets and actions, never rule IDs.
	for i, dev := range touchedList {
		n.index[dev] = newIndex[i]
	}
	n.generation++

	return MutationResult{Remap: remap, Added: addedIDs, Touched: touchedList}, nil
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
