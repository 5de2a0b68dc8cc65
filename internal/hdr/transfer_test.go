package hdr

import (
	"math/rand"
	"net/netip"
	"testing"
)

// randomRuleSet builds a set shaped like the match sets rules produce:
// destination/source prefixes intersected with optional protocol and port
// constraints, combined across a few "rules" with union and difference
// (difference mirrors longest-prefix-match shadowing).
func randomRuleSet(sp *Space, rng *rand.Rand) Set {
	ruleTerm := func() Set {
		s := sp.DstPrefix(randomPrefix(sp, rng))
		if rng.Intn(2) == 0 {
			s = s.Intersect(sp.SrcPrefix(randomPrefix(sp, rng)))
		}
		switch rng.Intn(3) {
		case 0:
			s = s.Intersect(sp.Proto(uint8(rng.Intn(256))))
		case 1:
			lo := uint16(rng.Intn(60000))
			s = s.Intersect(sp.DstPortRange(lo, lo+uint16(rng.Intn(5000))))
		}
		return s
	}
	acc := ruleTerm()
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		if rng.Intn(4) == 0 {
			acc = acc.Diff(ruleTerm())
		} else {
			acc = acc.Union(ruleTerm())
		}
	}
	return acc
}

func randomPrefix(sp *Space, rng *rand.Rand) netip.Prefix {
	if sp.Family() == V4 {
		var b [4]byte
		rng.Read(b[:])
		return netip.PrefixFrom(netip.AddrFrom4(b), rng.Intn(33))
	}
	var b [16]byte
	rng.Read(b[:])
	return netip.PrefixFrom(netip.AddrFrom16(b), rng.Intn(129))
}

// transferTo moves one set into dst through a session of its own: the
// spaces in these tests grow between moves, which a live session forbids.
func transferTo(a Set, dst *Space) Set { return NewTransfer(a.Space(), dst).Move(a) }

func TestTransferToPropertyRoundTrip(t *testing.T) {
	for _, fam := range []Family{V4, V6} {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			src := NewFamilySpace(fam)
			dst := NewFamilySpace(fam)
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 60; i++ {
				a := randomRuleSet(src, rng)
				b := transferTo(a, dst)

				if b.Space() != dst {
					t.Fatalf("case %d: transferred set not in destination space", i)
				}
				if a.IsEmpty() != b.IsEmpty() {
					t.Errorf("case %d: IsEmpty %v -> %v", i, a.IsEmpty(), b.IsEmpty())
				}
				if a.Count().Cmp(b.Count()) != 0 {
					t.Errorf("case %d: Count %v -> %v", i, a.Count(), b.Count())
				}
				if a.Fraction() != b.Fraction() {
					t.Errorf("case %d: Fraction %v -> %v", i, a.Fraction(), b.Fraction())
				}
				// Round-trip back: the returned set must be node-equal to
				// the original (Equal is index equality in one manager).
				back := transferTo(b, src)
				if !back.Equal(a) {
					t.Errorf("case %d: round-trip not Equal to original", i)
				}
				// And algebra composes across transferred sets: the
				// complement transfers to the complement.
				if !transferTo(a.Negate(), dst).Equal(b.Negate()) {
					t.Errorf("case %d: negation does not commute with transfer", i)
				}
			}
		})
	}
}

func TestTransferToSameSpaceIsIdentity(t *testing.T) {
	sp := NewSpace()
	rng := rand.New(rand.NewSource(7))
	a := randomRuleSet(sp, rng)
	if got := transferTo(a, sp); !got.Equal(a) || got.Space() != sp {
		t.Error("a transfer into the set's own space should return it unchanged")
	}
}

func TestTransferToCrossFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic transferring V4 set to V6 space")
		}
	}()
	transferTo(NewSpace().Full(), NewSpaceV6())
}
