package hdr

import (
	"context"
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"yardstick/internal/bdd"
)

// lpmCase is a sorted, distinct prefix list with a flag per prefix.
type lpmCase struct {
	v6       bool
	prefixes []netip.Prefix
	flag     []bool
}

// genLPM decodes a case from bytes, four per prefix: which earlier
// prefix to nest under (or none), how many bits to add, the flag, and
// the bits' seed. Nesting under earlier prefixes gives the deep chains a
// routing table has; a prefix with no parent and no added bits is /0,
// and a full-length one a host route.
func genLPM(v6 bool, data []byte) lpmCase {
	width := 32
	if v6 {
		width = 128
	}
	type entry struct {
		p    netip.Prefix
		flag bool
	}
	var es []entry
	for ; len(data) >= 4 && len(es) < 64; data = data[4:] {
		var addr [16]byte
		base := 0
		if i := int(data[0]&0x7f) % (len(es) + 1); i < len(es) {
			copy(addr[:], es[i].p.Addr().AsSlice())
			base = es[i].p.Bits()
		}
		bits := base + int(data[1])%(width-base+1)
		rng := rand.New(rand.NewSource(int64(data[3])<<8 | int64(data[0])))
		for b := base; b < bits; b++ {
			if rng.Intn(2) == 1 {
				addr[b/8] |= 1 << (7 - b%8)
			}
		}
		a := netip.AddrFrom16(addr)
		if !v6 {
			a = netip.AddrFrom4([4]byte(addr[:4]))
		}
		es = append(es, entry{netip.PrefixFrom(a, bits), data[2]&1 == 1})
	}
	// Of a prefix listed twice, the first flag wins.
	slices.SortStableFunc(es, func(a, b entry) int { return KeyOf(a.p).Compare(KeyOf(b.p)) })
	es = slices.CompactFunc(es, func(a, b entry) bool { return a.p == b.p })
	c := lpmCase{v6: v6}
	for _, e := range es {
		c.prefixes = append(c.prefixes, e.p)
		c.flag = append(c.flag, e.flag)
	}
	return c
}

func (c lpmCase) space() *Space {
	if c.v6 {
		return NewSpaceV6()
	}
	return NewSpace()
}

func (c lpmCase) keys() []PrefixKey {
	keys := make([]PrefixKey, len(c.prefixes))
	for i, p := range c.prefixes {
		keys[i] = KeyOf(p)
	}
	return keys
}

// foldLPM is the walk's oracle: each flagged prefix minus every listed
// prefix strictly inside it, unioned, with Or and Diff.
func foldLPM(s *Space, c lpmCase) Set {
	out := s.Empty()
	for i, p := range c.prefixes {
		if !c.flag[i] {
			continue
		}
		inside := s.Empty()
		for _, q := range c.prefixes {
			if q.Bits() > p.Bits() && p.Contains(q.Addr()) {
				inside = inside.Union(s.DstPrefix(q))
			}
		}
		out = out.Union(s.DstPrefix(p).Diff(inside))
	}
	return out
}

// checkLPM holds one case to the fold, and the walk's charged ops to at
// least the nodes it made; then it cancels the same walk at an op chosen
// by trip, on a fresh space: the walk must unwind with the cancellation
// and — under a live context — build the very node the fold does, with
// no node more than an undisturbed space holds.
func checkLPM(t *testing.T, c lpmCase, trip int) {
	t.Helper()
	s := c.space()
	ops, size := s.EngineStats().Ops, s.Manager().Size()
	got := s.LongestMatch(c.keys(), c.flag)
	walkOps := int(s.EngineStats().Ops - ops)
	if made := s.Manager().Size() - size; walkOps < made {
		t.Fatalf("the walk made %d nodes and charged %d ops", made, walkOps)
	}
	if want := foldLPM(s, c); !got.Equal(want) {
		t.Fatalf("%v flags %v: walk differs from the fold", c.prefixes, c.flag)
	}
	if !s.FromDstPrefixes(c.prefixes).Equal(fromDstPrefixesOr(s, c.prefixes)) {
		t.Fatalf("%v: FromDstPrefixes differs from the Or loop", c.prefixes)
	}
	if walkOps < 2 {
		return // nothing to trip in the middle of
	}

	s2 := c.space()
	want2 := foldLPM(s2, c)
	// The walk completes k ops, some but not all, and its next op is
	// cancelled: a cancelled context is seen at the next poll, every 1024
	// ops, so the count is first brought k+1 ops short of one.
	k := 1 + trip%min(walkOps-1, 1022)
	for s2.EngineStats().Ops%1024 != uint64(1023-k) {
		s2.Manager().Restrict(bdd.True, 0, 0, nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	restore := s2.WatchContext(ctx)
	err := bdd.Guard(func() { s2.LongestMatch(c.keys(), c.flag) })
	restore()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("walk of %d ops cancelled after %d: err = %v", walkOps, k, err)
	}
	if again := s2.LongestMatch(c.keys(), c.flag); again.Node() != want2.Node() {
		t.Fatal("after the cancellation the walk builds a different node")
	}
	s3 := c.space()
	foldLPM(s3, c)
	s3.LongestMatch(c.keys(), c.flag)
	if s2.Manager().Size() != s3.Manager().Size() {
		t.Fatalf("after the cancellation the space holds %d nodes, an undisturbed one %d", s2.Manager().Size(), s3.Manager().Size())
	}
}

func TestLongestMatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 4*(1+rng.Intn(24)))
		rng.Read(data)
		checkLPM(t, genLPM(trial%3 == 0, data), rng.Intn(1<<16))
	}
}

func TestLongestMatchCorners(t *testing.T) {
	s := NewSpace()
	keys := func(ps ...string) []PrefixKey {
		var out []PrefixKey
		for _, p := range ps {
			out = append(out, KeyOf(netip.MustParsePrefix(p)))
		}
		return out
	}
	full := keys("0.0.0.0/0", "10.0.0.0/8", "10.1.2.3/32")
	for _, tc := range []struct {
		name string
		flag []bool
		want Set
	}{
		{"none flagged", []bool{false, false, false}, s.Empty()},
		{"all flagged", []bool{true, true, true}, s.Full()},
		{"default only", []bool{true, false, false}, s.Full().Diff(s.DstPrefix(netip.MustParsePrefix("10.0.0.0/8")))},
		{"host route only", []bool{false, false, true}, s.DstIP(netip.MustParseAddr("10.1.2.3"))},
	} {
		if got := s.LongestMatch(full, tc.flag); !got.Equal(tc.want) {
			t.Errorf("%s: wrong set", tc.name)
		}
	}
	if !s.LongestMatch(nil, nil).IsEmpty() {
		t.Error("an empty list matches something")
	}
	for name, bad := range map[string]func(){
		"unsorted":      func() { s.LongestMatch(keys("10.0.0.0/8", "0.0.0.0/0"), []bool{true, true}) },
		"repeated":      func() { s.LongestMatch(keys("10.0.0.0/8", "10.0.0.0/8"), []bool{true, true}) },
		"other family":  func() { s.LongestMatch(keys("2001:db8::/32"), []bool{true}) },
		"flags missing": func() { s.LongestMatch(keys("10.0.0.0/8"), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s list did not panic", name)
				}
			}()
			bad()
		}()
	}
}

// FuzzLongestMatch: the walk against the fold, and a cancellation in the
// middle of it, on lists the fuzzer shapes.
func FuzzLongestMatch(f *testing.F) {
	f.Add(false, []byte{0x80, 0, 1, 0, 0, 8, 0, 1, 1, 24, 1, 2, 2, 8, 0, 3, 0x7f, 32, 1, 4}, uint16(5))
	f.Add(true, []byte{0x80, 0, 1, 0, 0, 48, 0, 1, 1, 16, 1, 2, 2, 64, 0, 3, 0x7f, 128, 1, 4}, uint16(9))
	f.Fuzz(func(t *testing.T, v6 bool, data []byte, trip uint16) {
		checkLPM(t, genLPM(v6, data), int(trip))
	})
}
