package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"

	"yardstick/internal/bgp"
	"yardstick/internal/delta"
	"yardstick/internal/netmodel"
	"yardstick/internal/topogen"
)

// Every input is generated here, on the harness side, from the seed;
// the programs under test receive only files and flags.

const (
	fatTreeK = 10 // 125 switches, destination-prefix FIBs only

	// Spine ACLs of the regional network: aclPerSpine seeded deny
	// entries (a source /24 of 198.18.0.0/15 x a destination-port range)
	// and one trailing permit-all, so that no test packet is dropped but
	// every match set on a spine needs all five header fields.
	aclPerSpine = 6

	// flapCycle is the number of seeded flap events in one churn cycle,
	// before the events that re-announce whatever is still withdrawn.
	flapCycle = 4
)

var regionalOpts = topogen.RegionalOpts{DCs: 2, PodsPerDC: 4, ToRsPerPod: 8}

// allSuites is the name-addressable vocabulary of testkit.BuiltinSuite.
var allSuites = []string{"default", "connected", "internal", "agg", "contract", "reach", "pingmesh", "host"}

// batchSuites is what the CLI workloads run, in this order on every op
// (host adds nothing on a fat-tree whose ToRs have one host port each).
// The order is fixed because it decides the op-cache history: a seeded
// permutation moved the op time by a third from one order to the next.
var batchSuites = allSuites[:7]

// inputs is one generated network with its encoding.
type inputs struct {
	family   string // "fattree-k10" or "regional-m"
	net      *netmodel.Network
	json     []byte
	regional *topogen.Regional // nil for the fat-tree
	// tors and hostPrefix feed the concrete-packet probes.
	tors       []netmodel.DeviceID
	hostPrefix map[netmodel.DeviceID]netip.Prefix
}

func encodeNet(n *netmodel.Network) ([]byte, error) {
	var buf bytes.Buffer
	if err := n.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func genFatTree() (*inputs, error) {
	ft, err := topogen.BuildFatTree(fatTreeK)
	if err != nil {
		return nil, err
	}
	js, err := encodeNet(ft.Net)
	if err != nil {
		return nil, err
	}
	return &inputs{family: fmt.Sprintf("fattree-k%d", fatTreeK), net: ft.Net, json: js,
		tors: ft.ToRs, hostPrefix: ft.HostPrefix}, nil
}

// unfrozenCopy rebuilds src rule by rule on a copy of its topology, in
// a fresh space, without computing match sets: the one way to get a
// network that still accepts rules out of a frozen one.
func unfrozenCopy(src *netmodel.Network) *netmodel.Network {
	n := src.CloneTopology()
	for _, r := range src.Rules {
		if r.Table == netmodel.TableACL {
			n.AddACLRule(r.Device, r.Match, r.Deny)
		} else {
			n.AddFIBRule(r.Device, r.Match, r.Action, r.Origin)
		}
	}
	return n
}

// addSpineACLs appends the seeded ACL to every spine of an unfrozen
// regional network. The same seed gives the same entries, so a network
// re-converged by a flap replay gets exactly the ACL the base had.
func addSpineACLs(n *netmodel.Network, spines []netmodel.DeviceID, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x61636c)) // "acl"
	for _, sp := range spines {
		for j := 0; j < aclPerSpine; j++ {
			m := netmodel.MatchAll()
			// 198.18.0.0/15 holds 512 /24s.
			third := rng.Intn(512)
			m.SrcPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(18 + third/256), byte(third % 256), 0}), 24)
			m.Proto = []int32{6, 17}[rng.Intn(2)]
			lo := uint16(1024 + rng.Intn(60000))
			m.DstPortLo, m.DstPortHi = lo, lo+uint16(rng.Intn(2000))
			n.AddACLRule(sp, m, true)
		}
		n.AddACLRule(sp, netmodel.MatchAll(), false)
	}
}

func genRegional(seed int64) (*inputs, error) {
	rg, err := topogen.BuildRegional(regionalOpts)
	if err != nil {
		return nil, err
	}
	n := unfrozenCopy(rg.Net)
	addSpineACLs(n, rg.Spines, seed)
	n.ComputeMatchSets()
	js, err := encodeNet(n)
	if err != nil {
		return nil, err
	}
	return &inputs{family: "regional-m", net: n, json: js, regional: rg,
		tors: rg.ToRs, hostPrefix: rg.HostPrefix}, nil
}

// rolesOf lists device roles in first-seen order, the order every
// program under test uses for a network loaded from a file.
func rolesOf(n *netmodel.Network) []netmodel.Role {
	seen := map[netmodel.Role]bool{}
	var out []netmodel.Role
	for _, d := range n.Devices {
		if !seen[d.Role] {
			seen[d.Role] = true
			out = append(out, d.Role)
		}
	}
	return out
}

// mixDeck is the service_mix op mix: sixteen submissions of one to
// three suites. Every suite appears alone once, so the two end-to-end
// suites (reach, pingmesh) are one op in sixteen each and form the tail,
// while the cheap suites keep reading the table a large share of the
// median op. The seed only deals the deck: every window of sixteen ops
// per client holds the same work, which is what keeps the median steady
// from seed to seed.
var mixDeck = [][]string{
	{"default"}, {"connected"}, {"internal"}, {"agg"}, {"contract"}, {"reach"}, {"pingmesh"}, {"host"},
	{"default", "connected"}, {"host", "agg"}, {"contract", "internal"}, {"agg", "default"},
	{"default", "connected", "host"}, {"agg", "contract", "internal"},
	{"connected", "host", "contract"}, {"default", "agg", "internal"},
}

// suiteMix returns the first n ops of one service_mix client: the deck,
// shuffled anew for every pass.
func suiteMix(seed int64, client, n int) [][]string {
	rng := rand.New(rand.NewSource(seed*1009 + int64(client)))
	out := make([][]string, 0, n+len(mixDeck))
	for len(out) < n {
		deck := append([][]string(nil), mixDeck...)
		rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		out = append(out, deck...)
	}
	return out[:n]
}

// hostOrigins lists the originations that are ToR host subnets: one
// class of prefix, so every flap moves about the same number of rules
// and a document's size does not depend on which prefixes the seed drew.
func hostOrigins(rg *topogen.Regional) []int {
	tor := map[netmodel.DeviceID]bool{}
	for _, d := range rg.ToRs {
		tor[d] = true
	}
	var idx []int
	for i, o := range rg.Origins {
		if tor[o.Device] && o.EdgeIface != netmodel.NoIface {
			idx = append(idx, i)
		}
	}
	return idx
}

// flapSchedule is one churn cycle: flapCycle events drawn by
// bgp.GenFlaps over the given originations, followed by the
// re-announcements that bring every one of them back up, so the cycle
// can repeat.
func flapSchedule(seed int64, origins []int) []bgp.FlapEvent {
	evs := bgp.GenFlaps(seed, flapCycle, len(origins))
	for i := range evs {
		evs[i].Origin = origins[evs[i].Origin]
	}
	down := map[int]bool{}
	var order []int
	for _, ev := range evs {
		if !ev.Up && !down[ev.Origin] {
			order = append(order, ev.Origin)
		}
		down[ev.Origin] = !ev.Up
	}
	for _, o := range order {
		if down[o] {
			evs = append(evs, bgp.FlapEvent{Origin: o, Up: true})
			down[o] = false
		}
	}
	return evs
}

// churnStep is one pre-diffed PATCH /network document with the state it
// leads to.
type churnStep struct {
	doc     []byte // delta.Document JSON
	fp      string // fingerprint after the document
	netJSON []byte // the twin network after the document
}

// churnPlan is the flap replay turned into documents. The daemon's
// rule-ID layout after a document differs from a fresh build's (removed
// IDs compact, added rules append), so the documents are diffed against
// a twin network kept in lockstep with delta.ApplyOps. One pass over
// the cycle moves the layout to a fixed point: the second pass ends
// where it began, which is what lets the timed loop repeat it for as
// long as the window lasts.
type churnPlan struct {
	warm  []churnStep // first pass, played once during warm-up
	cycle []churnStep // second pass, repeated by the timed loop
}

func fingerprintOf(js []byte) string {
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

func genChurnPlan(in *inputs, seed int64) (*churnPlan, error) {
	rg := in.regional
	twin, err := netmodel.DecodeJSON(bytes.NewReader(in.json))
	if err != nil {
		return nil, err
	}
	fp := fingerprintOf(in.json)
	replay := bgp.NewReplay(bgp.Config{Net: rg.Net, Origins: rg.Origins, Statics: rg.Statics, Export: rg.Export})
	evs := flapSchedule(seed, hostOrigins(rg))
	pass := func() ([]churnStep, error) {
		var steps []churnStep
		for i, ev := range evs {
			if err := replay.Toggle(ev); err != nil {
				return nil, fmt.Errorf("flap %d: %w", i, err)
			}
			next, err := replay.Build()
			if err != nil {
				return nil, fmt.Errorf("flap %d: %w", i, err)
			}
			addSpineACLs(next, rg.Spines, seed)
			ops, err := delta.Diff(twin, next)
			if err != nil {
				return nil, fmt.Errorf("flap %d diff: %w", i, err)
			}
			doc, err := jsonMarshal(delta.Document{Base: fp, Ops: ops})
			if err != nil {
				return nil, err
			}
			if err := delta.ApplyOps(twin, ops); err != nil {
				return nil, fmt.Errorf("flap %d apply to twin: %w", i, err)
			}
			js, err := encodeNet(twin)
			if err != nil {
				return nil, err
			}
			fp = fingerprintOf(js)
			steps = append(steps, churnStep{doc: doc, fp: fp, netJSON: js})
		}
		return steps, nil
	}
	p := &churnPlan{}
	if p.warm, err = pass(); err != nil {
		return nil, err
	}
	if p.cycle, err = pass(); err != nil {
		return nil, err
	}
	if a, b := p.warm[len(p.warm)-1].fp, p.cycle[len(p.cycle)-1].fp; a != b {
		return nil, fmt.Errorf("churn cycle does not close: fingerprint %.12s after pass 1, %.12s after pass 2", a, b)
	}
	return p, nil
}
