package bdd

import (
	"math/rand"
	"testing"
)

// buildScripted interprets ops as a deterministic construction script
// over m, returning the root of every intermediate function. The same
// script on any manager builds the same sequence of boolean functions,
// which makes it a canonicity probe: replaying a script must return
// bit-identical node indices, resizes or not.
func buildScripted(m *Manager, ops []byte) []Node {
	roots := []Node{m.Var(0)}
	cur := roots[0]
	for i, b := range ops {
		v := int(b>>2) % m.NumVars()
		operand := m.Var(v)
		if b&2 != 0 {
			operand = m.Not(operand)
		}
		switch b & 1 {
		case 0:
			cur = m.Or(cur, m.And(operand, m.Var((v+i)%m.NumVars())))
		default:
			cur = xor(m, cur, operand)
		}
		roots = append(roots, cur)
	}
	return roots
}

// TestUniqueResizeCanonicity drives the unique table through several
// doublings (initial capacity is 1<<10 slots; resize triggers at 3/4
// load) and checks that hash consing still canonicalizes: rebuilding a
// function already in the table returns the same Node, before and after
// growth.
func TestUniqueResizeCanonicity(t *testing.T) {
	m := New(24)
	rng := rand.New(rand.NewSource(77))

	type probe struct {
		a, b Node
		and  Node
	}
	var probes []probe
	startSlots := len(m.uniq)
	for len(m.uniq) < startSlots*8 {
		a := randomNode(m, rng, 12)
		b := randomNode(m, rng, 12)
		probes = append(probes, probe{a: a, b: b, and: m.And(a, b)})
	}
	if len(m.uniq) < startSlots*8 {
		t.Fatalf("table did not grow: %d slots", len(m.uniq))
	}
	if got, want := m.uniqUsed, len(m.nodes)-2; got != want {
		t.Fatalf("uniqUsed = %d, want %d (nodes-2)", got, want)
	}
	// Every earlier result must still be found, not re-interned.
	for i, p := range probes {
		if again := m.And(p.a, p.b); again != p.and {
			t.Fatalf("probe %d: And(%d,%d) = %d after growth, was %d", i, p.a, p.b, again, p.and)
		}
	}
	// Load factor stays under the resize threshold.
	if st := m.Stats(); st.UniqueLoad >= 0.75 {
		t.Errorf("unique load %.3f >= 0.75 after resize", st.UniqueLoad)
	}
}

// TestResizeCanonicityAcrossCopyFrom replays one construction script in
// two managers and transfers every root across: semantic equality in
// the source (same Node) must map to semantic equality in the
// destination, and copying back must land on the original nodes — even
// though the two tables resize at different times (the destination also
// holds extra junk nodes).
func TestResizeCanonicityAcrossCopyFrom(t *testing.T) {
	const nv = 16
	script := make([]byte, 4000)
	rng := rand.New(rand.NewSource(99))
	rng.Read(script)

	src := New(nv)
	roots := buildScripted(src, script)

	dst := New(nv)
	// Pre-populate dst with unrelated nodes so its table geometry and
	// node indices diverge from src's before the transfer.
	for i := 0; i < 500; i++ {
		randomNode(dst, rng, 6)
	}

	moved := make([]Node, len(roots))
	out := dst.BeginTransfer(src)
	for i, r := range roots {
		moved[i] = out.Copy(r)
	}
	for i := range roots {
		for j := i + 1; j < len(roots); j++ {
			if (roots[i] == roots[j]) != (moved[i] == moved[j]) {
				t.Fatalf("equality not preserved: src %d,%d (%v) vs dst %d,%d",
					roots[i], roots[j], roots[i] == roots[j], moved[i], moved[j])
			}
		}
	}
	// Round trip back into src: must be the identity.
	in := src.BeginTransfer(dst)
	for i, mv := range moved {
		if back := in.Copy(mv); back != roots[i] {
			t.Fatalf("root %d: round trip %d -> %d -> %d, want identity", i, roots[i], mv, back)
		}
	}
}

// FuzzUniqueResizeCanonicity replays an arbitrary construction script
// into two fresh managers and asserts bit-identical node indices — the
// strongest statement of deterministic hash consing across resizes —
// plus Eval agreement on a few assignments.
func FuzzUniqueResizeCanonicity(f *testing.F) {
	f.Add([]byte{0x01, 0x57, 0xfe, 0x10})
	seed := make([]byte, 2500) // enough mk traffic to cross a resize
	rand.New(rand.NewSource(5)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 5000 {
			ops = ops[:5000]
		}
		const nv = 12
		m1 := New(nv)
		m2 := New(nv)
		r1 := buildScripted(m1, ops)
		r2 := buildScripted(m2, ops)
		if len(r1) != len(r2) {
			t.Fatalf("root counts differ: %d vs %d", len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("root %d: node %d vs %d — hash consing is not deterministic", i, r1[i], r2[i])
			}
		}
		if m1.Size() != m2.Size() {
			t.Fatalf("sizes differ: %d vs %d", m1.Size(), m2.Size())
		}
		// Transfer the last root to a third manager and back.
		last := r1[len(r1)-1]
		m3 := New(nv)
		if back := copyFrom(m1, m3, copyFrom(m3, m1, last)); back != last {
			t.Fatalf("transfer round trip changed node: %d -> %d", last, back)
		}
	})
}
