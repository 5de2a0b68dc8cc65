// Model counting.
//
// SatFraction is what evaluation reads — every coverage ratio is a
// quotient of fractions — so it keeps a node-indexed dense memo on the
// manager, grown lazily to the node table at each call (the recursion
// never creates nodes, so the array cannot go stale mid-walk).
//
// SatCount is the exact count, kept for callers that want |set| itself
// rather than a ratio. It is a plain big.Int recursion whose memo lives
// only for the call, so counting leaves no state in the manager.
package bdd

import "math/big"

// ensureSatFrac grows the SatFraction memo to cover every node.
// Unset entries are -1 (fractions live in [0,1]).
func (m *Manager) ensureSatFrac() {
	for len(m.satFrac) < len(m.nodes) {
		m.satFrac = append(m.satFrac, -1)
	}
}

// SatFraction returns the fraction of all 2^numVars assignments that
// satisfy a, as a float64 in [0,1]. Under the uniform measure this is
// exact up to float64 rounding and independent of skipped levels:
// frac(n) = (frac(low)+frac(high))/2.
func (m *Manager) SatFraction(a Node) float64 {
	m.ensureSatFrac()
	return m.satFracRec(a)
}

func (m *Manager) satFracRec(a Node) float64 {
	if f := m.satFrac[a]; f >= 0 {
		return f
	}
	nd := m.nodes[a]
	f := (m.satFracRec(nd.low) + m.satFracRec(nd.high)) / 2
	m.satFrac[a] = f
	m.satFracN++
	return f
}

// SatCount returns the exact number of satisfying assignments of a over
// the full variable universe. The returned value is fresh; callers may
// mutate it.
func (m *Manager) SatCount(a Node) *big.Int {
	memo := map[Node]*big.Int{}
	// rec counts the assignments of the variables from n's level
	// (inclusive) to numVars (exclusive).
	var rec func(Node) *big.Int
	rec = func(n Node) *big.Int {
		switch n {
		case False:
			return big.NewInt(0)
		case True:
			return big.NewInt(1)
		}
		if c, ok := memo[n]; ok {
			return c
		}
		nd := m.nodes[n]
		c := new(big.Int).Lsh(rec(nd.low), uint(m.level(nd.low)-nd.level-1))
		c.Add(c, new(big.Int).Lsh(rec(nd.high), uint(m.level(nd.high)-nd.level-1)))
		memo[n] = c
		return c
	}
	// Scale by the variables above a's level.
	return new(big.Int).Lsh(rec(a), uint(m.level(a)))
}
