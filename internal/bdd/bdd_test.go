package bdd

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := New(4)
	if m.SatFraction(False) != 0 {
		t.Errorf("SatFraction(False) = %v, want 0", m.SatFraction(False))
	}
	if m.SatFraction(True) != 1 {
		t.Errorf("SatFraction(True) = %v, want 1", m.SatFraction(True))
	}
	if got := m.SatCount(True); got.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("SatCount(True) = %v, want 16", got)
	}
	if got := m.SatCount(False); got.Sign() != 0 {
		t.Errorf("SatCount(False) = %v, want 0", got)
	}
}

func TestVarBasics(t *testing.T) {
	m := New(4)
	x := m.Var(0)
	if m.SatFraction(x) != 0.5 {
		t.Errorf("SatFraction(x0) = %v, want 0.5", m.SatFraction(x))
	}
	if m.And(x, m.Not(x)) != False {
		t.Error("x ∧ ¬x should be False")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Error("x ∨ ¬x should be True")
	}
	if m.NVar(0) != m.Not(x) {
		t.Error("NVar(0) should equal Not(Var(0))")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(4)
	// Build the same function two ways; canonical form means equal nodes.
	a := m.And(m.Var(0), m.Var(1))
	b := m.Not(m.Or(m.Not(m.Var(0)), m.Not(m.Var(1))))
	if a != b {
		t.Errorf("De Morgan: got distinct nodes %d and %d for same function", a, b)
	}
}

// xor is the exclusive or a ⊕ b, as (a∖b) ∨ (b∖a): the kernel keeps
// only the operations evaluation uses, and the random generators need
// the fourth combinator.
func xor(m *Manager, a, b Node) Node { return m.Or(m.Diff(a, b), m.Diff(b, a)) }

// randomNode builds a random function over numVars variables with the given
// number of combining operations.
func randomNode(m *Manager, rng *rand.Rand, ops int) Node {
	return randomNodeFrom(m, rng, 0, ops)
}

// randomNodeFrom is randomNode over the variables from lo on.
func randomNodeFrom(m *Manager, rng *rand.Rand, lo, ops int) Node {
	n := m.Var(lo + rng.Intn(m.NumVars()-lo))
	if rng.Intn(2) == 0 {
		n = m.Not(n)
	}
	for i := 0; i < ops; i++ {
		other := m.Var(lo + rng.Intn(m.NumVars()-lo))
		if rng.Intn(2) == 0 {
			other = m.Not(other)
		}
		switch rng.Intn(4) {
		case 0:
			n = m.And(n, other)
		case 1:
			n = m.Or(n, other)
		case 2:
			n = xor(m, n, other)
		case 3:
			n = m.Diff(n, other)
		}
	}
	return n
}

func TestPropertyInvolution(t *testing.T) {
	m := New(8)
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		a := randomNode(m, rng, 6)
		return m.Not(m.Not(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeMorgan(t *testing.T) {
	m := New(8)
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		a := randomNode(m, rng, 5)
		b := randomNode(m, rng, 5)
		lhs := m.Not(m.And(a, b))
		rhs := m.Or(m.Not(a), m.Not(b))
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAbsorptionIdempotence(t *testing.T) {
	m := New(8)
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		a := randomNode(m, rng, 5)
		b := randomNode(m, rng, 5)
		return m.And(a, a) == a &&
			m.Or(a, a) == a &&
			m.And(a, m.Or(a, b)) == a &&
			m.Or(a, m.And(a, b)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyInclusionExclusion(t *testing.T) {
	m := New(10)
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		a := randomNode(m, rng, 5)
		b := randomNode(m, rng, 5)
		union := m.SatFraction(m.Or(a, b))
		inter := m.SatFraction(m.And(a, b))
		sum := m.SatFraction(a) + m.SatFraction(b)
		return math.Abs(union+inter-sum) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyDiffXor: Diff is the conjunction with the complement,
// a ∖ b = a ∧ ¬b.
func TestPropertyDiffXor(t *testing.T) {
	m := New(8)
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		a := randomNode(m, rng, 5)
		b := randomNode(m, rng, 5)
		return m.Diff(a, b) == m.And(a, m.Not(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSatCountBruteForce verifies exact model counts against enumeration.
func TestSatCountBruteForce(t *testing.T) {
	const nv = 6
	m := New(nv)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a := randomNode(m, rng, 8)
		want := 0
		assign := make([]bool, nv)
		for bits := 0; bits < 1<<nv; bits++ {
			for v := 0; v < nv; v++ {
				assign[v] = bits&(1<<v) != 0
			}
			if m.Eval(a, assign) {
				want++
			}
		}
		if got := m.SatCount(a); got.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("trial %d: SatCount = %v, want %d", trial, got, want)
		}
		frac := m.SatFraction(a)
		if math.Abs(frac-float64(want)/(1<<nv)) > 1e-12 {
			t.Fatalf("trial %d: SatFraction = %v, want %v", trial, frac, float64(want)/(1<<nv))
		}
	}
}

func TestExists(t *testing.T) {
	m := New(4)
	// f = x0 ∧ x1. ∃x0.f = x1.
	f := m.And(m.Var(0), m.Var(1))
	if got := m.ExistsCube(f, m.Cube([]int{0})); got != m.Var(1) {
		t.Errorf("∃x0.(x0∧x1) = node %d, want x1 node %d", got, m.Var(1))
	}
	// ∃x0,x1.f = True.
	if got := m.ExistsCube(f, m.Cube([]int{0, 1})); got != True {
		t.Errorf("∃x0x1.(x0∧x1) = %d, want True", got)
	}
	// Quantifying an unused variable is identity.
	if got := m.ExistsCube(f, m.Cube([]int{3})); got != f {
		t.Errorf("∃x3.(x0∧x1) changed the function")
	}
}

func TestPropertyExistsBruteForce(t *testing.T) {
	const nv = 5
	m := New(nv)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		a := randomNode(m, rng, 6)
		var qvars []int
		for v := 0; v < nv; v++ {
			if rng.Intn(2) == 0 {
				qvars = append(qvars, v)
			}
		}
		got := m.ExistsCube(a, m.Cube(qvars))
		// Brute force: exists is true where some completion satisfies a.
		assign := make([]bool, nv)
		for bits := 0; bits < 1<<nv; bits++ {
			for v := 0; v < nv; v++ {
				assign[v] = bits&(1<<v) != 0
			}
			want := false
			// Enumerate quantified variables.
			sub := make([]bool, nv)
			copy(sub, assign)
			for qbits := 0; qbits < 1<<len(qvars); qbits++ {
				for i, v := range qvars {
					sub[v] = qbits&(1<<i) != 0
				}
				if m.Eval(a, sub) {
					want = true
					break
				}
			}
			if m.Eval(got, assign) != want {
				t.Fatalf("trial %d: ExistsCube disagrees with brute force at %v", trial, assign)
			}
		}
	}
}

func TestAnySat(t *testing.T) {
	m := New(6)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		a := randomNode(m, rng, 6)
		assign, ok := m.AnySat(a)
		if a == False {
			if ok {
				t.Fatal("AnySat(False) returned an assignment")
			}
			continue
		}
		if !ok {
			t.Fatal("AnySat returned none for satisfiable function")
		}
		if !m.Eval(a, assign) {
			t.Fatalf("AnySat returned non-satisfying assignment %v", assign)
		}
	}
	if _, ok := m.AnySat(False); ok {
		t.Error("AnySat(False) should report unsatisfiable")
	}
}

func TestAllSatCoversFunction(t *testing.T) {
	const nv = 5
	m := New(nv)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		a := randomNode(m, rng, 6)
		// Rebuild the function from its cubes.
		rebuilt := False
		m.AllSat(a, func(cube []byte) bool {
			c := True
			for v, val := range cube {
				switch val {
				case 0:
					c = m.And(c, m.NVar(v))
				case 1:
					c = m.And(c, m.Var(v))
				}
			}
			rebuilt = m.Or(rebuilt, c)
			return true
		})
		if rebuilt != a {
			t.Fatalf("trial %d: AllSat cubes do not rebuild the function", trial)
		}
	}
}

func TestAllSatEarlyStop(t *testing.T) {
	m := New(4)
	f := m.Or(m.Var(0), m.Var(1))
	calls := 0
	m.AllSat(f, func(cube []byte) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("AllSat early stop: got %d calls, want 1", calls)
	}
}

func TestCube(t *testing.T) {
	m := New(4)
	c := m.Cube([]int{0, 2})
	want := m.And(m.Var(0), m.Var(2))
	if c != want {
		t.Error("Cube([0,2]) != x0∧x2")
	}
	if m.Cube(nil) != True {
		t.Error("Cube(nil) != True")
	}
}

// TestLiterals: the bottom-up chain is the node the And-chain of single
// literals builds, over any range and polarity, and charges one op per
// level so a cancellation at an exact op still stops it.
func TestLiterals(t *testing.T) {
	m := New(12)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		first := rng.Intn(12)
		vals := make([]bool, rng.Intn(12-first+1))
		want := True
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
			lit := m.NVar(first + i)
			if vals[i] {
				lit = m.Var(first + i)
			}
			want = m.And(want, lit)
		}
		if got := m.Literals(first, vals); got != want {
			t.Fatalf("Literals(%d, %v) != the conjunction of its literals", first, vals)
		}
	}
	if m.Literals(5, nil) != True {
		t.Error("Literals of no variables != True")
	}

	before := m.Stats().Ops
	m.Literals(2, make([]bool, 9))
	if got := m.Stats().Ops - before; got != 9 {
		t.Errorf("a 9-level chain charged %d ops, want 9", got)
	}
	restore := m.WatchContext(cancelAtOp(m, 5))
	if err := Guard(func() { m.Literals(0, make([]bool, 12)) }); !errors.Is(err, context.Canceled) {
		t.Errorf("12-level chain cancelled at op 5: err = %v, want context.Canceled", err)
	}
	restore()

	defer func() {
		if recover() == nil {
			t.Error("Literals past the last variable did not panic")
		}
	}()
	New(4).Literals(2, make([]bool, 3))
}

// TestMakeNode: a node built bottom-up is its variable's choice between
// its branches, (x ∧ high) ∨ (low ∖ x), a redundant test collapses, every call charges one op,
// and a branch that does not lie below the variable panics.
func TestMakeNode(t *testing.T) {
	m := New(8)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		v := rng.Intn(7)
		low, high := randomNodeFrom(m, rng, v+1, 4), randomNodeFrom(m, rng, v+1, 4)
		ops := m.Stats().Ops
		got := m.MakeNode(v, low, high)
		if m.Stats().Ops != ops+1 {
			t.Fatalf("trial %d: MakeNode charged %d ops, want 1", trial, m.Stats().Ops-ops)
		}
		x := m.Var(v)
		if want := m.Or(m.And(x, high), m.Diff(low, x)); got != want {
			t.Fatalf("trial %d: MakeNode(%d, …) != (x%d ∧ high) ∨ (low ∖ x%d)", trial, v, v, v)
		}
	}
	x := m.Var(5)
	if m.MakeNode(2, x, x) != x {
		t.Error("a node with equal branches did not collapse")
	}
	for _, tc := range []struct {
		v         int
		low, high Node
	}{{5, x, True}, {6, False, x}, {8, False, True}, {-1, False, True}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeNode(%d, %d, %d) did not panic", tc.v, tc.low, tc.high)
				}
			}()
			m.MakeNode(tc.v, tc.low, tc.high)
		}()
	}
}

// TestRestrict: the walk is the cofactor. On every assignment, the
// restriction of a random function over the variables from first on
// evaluates as the function does with the restricted variables forced to
// the given bits; the walk creates no node and charges one op.
func TestRestrict(t *testing.T) {
	const nv = 8
	m := New(nv)
	rng := rand.New(rand.NewSource(13))
	assign, forced := make([]bool, nv), make([]bool, nv)
	for trial := 0; trial < 300; trial++ {
		first := rng.Intn(nv)
		a := randomNodeFrom(m, rng, first, 6)
		width := rng.Intn(nv - first + 1)
		bits := []byte{byte(rng.Intn(256))}
		nodes, ops := m.Size(), m.Stats().Ops
		r := m.Restrict(a, first, width, bits)
		if m.Size() != nodes || m.Stats().Ops != ops+1 {
			t.Fatalf("trial %d: the walk made %d nodes and charged %d ops, want 0 and 1", trial, m.Size()-nodes, m.Stats().Ops-ops)
		}
		for x := 0; x < 1<<nv; x++ {
			for v := range assign {
				assign[v] = x>>v&1 == 1
				forced[v] = assign[v]
			}
			for i := 0; i < width; i++ {
				forced[first+i] = bits[0]>>(7-i)&1 == 1
			}
			if m.Eval(r, assign) != m.Eval(a, forced) {
				t.Fatalf("trial %d: Restrict(%d, %d, %08b) disagrees with forced Eval at %v", trial, first, width, bits[0], assign)
			}
		}
	}
	if m.Restrict(m.Var(3), 0, 0, nil) != m.Var(3) {
		t.Error("restricting no variable changed the function")
	}

	x0 := m.Var(0)
	restore := m.WatchContext(cancelAtOp(m, 1))
	m.Restrict(True, 0, 8, []byte{0})
	if err := Guard(func() { m.Restrict(x0, 0, 8, []byte{0}) }); !errors.Is(err, context.Canceled) {
		t.Errorf("second walk cancelled at op 1: err = %v, want context.Canceled", err)
	}
	restore()

	for name, call := range map[string]func(){
		"above first":    func() { m.Restrict(m.Var(0), 1, 2, []byte{0}) },
		"past last":      func() { m.Restrict(True, 4, 5, []byte{0, 0}) },
		"beyond bits":    func() { m.Restrict(True, 0, 9, []byte{0}) },
		"negative width": func() { m.Restrict(True, 0, -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restrict did not panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzRestrict holds the walk to the conjunction it replaces: for a
// function the fuzzed program builds over the variables from first on and
// a fuzzed prefix of them, the restriction conjoined with the prefix's
// Literals chain is the function conjoined with it, and the restriction
// tests none of the fixed variables — the two facts that pin a cofactor
// down.
func FuzzRestrict(f *testing.F) {
	f.Add([]byte{0x13, 0x47, 0x8a, 0xcd, 0x21}, uint8(0), uint8(5), uint16(0xa5c3))
	f.Add([]byte{0xff, 0x00, 0x7e}, uint8(3), uint8(9), uint16(0x0f0f))
	f.Add([]byte{}, uint8(11), uint8(1), uint16(0xffff))
	f.Fuzz(func(t *testing.T, prog []byte, first, width uint8, val uint16) {
		const nv = 12
		m := New(nv)
		lo := int(first) % nv
		w := int(width) % (nv - lo + 1)
		// Each byte is one step: a literal over the variables from lo on
		// (low bit: its polarity) combined by And, Or, xor or Diff.
		lit := func(b byte) Node {
			v := lo + int(b>>3)%(nv-lo)
			if b>>2&1 == 1 {
				return m.NVar(v)
			}
			return m.Var(v)
		}
		a := True
		for i, b := range prog {
			if i == 0 {
				a = lit(b)
				continue
			}
			switch b & 3 {
			case 0:
				a = m.And(a, lit(b))
			case 1:
				a = m.Or(a, lit(b))
			case 2:
				a = xor(m, a, lit(b))
			case 3:
				a = m.Diff(a, lit(b))
			}
		}
		bits := []byte{byte(val >> 8), byte(val)}
		vals := make([]bool, w)
		for i := range vals {
			vals[i] = bits[i>>3]>>(7-i&7)&1 == 1
		}
		chain := m.Literals(lo, vals)
		r := m.Restrict(a, lo, w, bits)
		if m.And(r, chain) != m.And(a, chain) {
			t.Fatalf("Restrict(%d, %d, %016b) ∧ chain != a ∧ chain", lo, w, val)
		}
		if r != False && r != True && int(m.level(r)) < lo+w {
			t.Fatalf("Restrict(%d, %d, %016b) still tests variable %d", lo, w, val, m.level(r))
		}
	})
}

func TestSatFractionOf(t *testing.T) {
	m := New(4)
	a := m.Var(0)           // half the space
	b := m.And(a, m.Var(1)) // quarter of the space, subset of a
	if got := m.SatFractionOf(b, a); got != 0.5 {
		t.Errorf("SatFractionOf(b, a) = %v, want 0.5", got)
	}
	if got := m.SatFractionOf(a, False); got != 0 {
		t.Errorf("SatFractionOf(a, ∅) = %v, want 0", got)
	}
}

func TestManagerGrowth(t *testing.T) {
	m := New(16)
	before := m.Size()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		randomNode(m, rng, 10)
	}
	if m.Size() <= before {
		t.Error("manager did not allocate nodes")
	}
}

func TestVarPanicsOutOfRange(t *testing.T) {
	m := New(2)
	for _, v := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Var(%d) did not panic", v)
				}
			}()
			m.Var(v)
		}()
	}
}

func BenchmarkAndWide(b *testing.B) {
	m := New(104)
	rng := rand.New(rand.NewSource(99))
	xs := make([]Node, 64)
	for i := range xs {
		xs[i] = randomNode(m, rng, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.And(xs[i%64], xs[(i+7)%64])
	}
}

func TestStats(t *testing.T) {
	m := New(8)
	before := m.Stats()
	if before.Nodes != 2 {
		t.Errorf("fresh manager nodes = %d, want 2 terminals", before.Nodes)
	}
	rng := rand.New(rand.NewSource(44))
	a := randomNode(m, rng, 10)
	m.SatFraction(a)
	after := m.Stats()
	if after.Nodes <= before.Nodes || after.UniqueEntries == 0 {
		t.Errorf("stats did not grow: %+v", after)
	}
	if after.SatFracEntries == 0 {
		t.Errorf("SatFraction memo empty: %+v", after)
	}
}
