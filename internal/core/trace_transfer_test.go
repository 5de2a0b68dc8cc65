package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"yardstick/internal/dataplane"
)

func TestTraceTransferTo(t *testing.T) {
	// Two structurally identical networks in independent BDD spaces —
	// the replica situation the sharded engine creates.
	canon := buildChain(t)
	replica := buildChain(t)
	if canon.n.Space == replica.n.Space {
		t.Fatal("fixture error: networks share a space")
	}

	// Record against the replica, as a worker would.
	rsp := replica.n.Space
	tr := NewTrace()
	tr.MarkPacket(dataplane.Injected(replica.d1), rsp.DstPrefix(pfx(t, "10.0.0.0/9")))
	tr.MarkPacket(replica.loc1Peer, rsp.DstPrefix(pfx(t, "10.0.0.0/16")).Intersect(rsp.Proto(6)))
	tr.MarkRule(replica.r2)

	got := tr.TransferTo(canon.n.Space)

	// The transferred trace matches one recorded natively in the
	// canonical space, set for set and rule for rule.
	csp := canon.n.Space
	want := NewTrace()
	want.MarkPacket(dataplane.Injected(canon.d1), csp.DstPrefix(pfx(t, "10.0.0.0/9")))
	want.MarkPacket(canon.loc1Peer, csp.DstPrefix(pfx(t, "10.0.0.0/16")).Intersect(csp.Proto(6)))
	want.MarkRule(canon.r2)

	for _, loc := range want.Locations() {
		if !got.PacketsAt(csp, loc).Equal(want.PacketsAt(csp, loc)) {
			t.Errorf("packets at %+v differ from natively recorded trace", loc)
		}
	}
	if got.Stats() != want.Stats() {
		t.Errorf("stats differ: %+v vs %+v", got.Stats(), want.Stats())
	}
	if !got.RuleMarked(canon.r2) || got.RuleMarked(canon.r1) {
		t.Error("rule marks differ after transfer")
	}

	// Coverage metrics computed from the transferred trace are identical.
	cGot, cWant := NewCoverage(canon.n, got), NewCoverage(canon.n, want)
	for _, r := range canon.n.Rules {
		if !cGot.Covered(r.ID).Equal(cWant.Covered(r.ID)) {
			t.Errorf("covered set of rule %d differs", r.ID)
		}
	}
}

// TestMergeIdempotent: merge(T, T) == T, and folding the same fragment
// in any number of times changes nothing — the invariant that makes the
// distributed coordinator's retries, re-dispatch and duplicate
// execution all safe.
func TestMergeIdempotent(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	mk := func() *Trace {
		tr := NewTrace()
		tr.MarkPacket(dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.0.0.0/9")))
		tr.MarkPacket(cn.loc1Peer, sp.DstPrefix(pfx(t, "10.0.0.0/16")).Intersect(sp.Proto(6)))
		tr.MarkRule(cn.r2)
		return tr
	}

	tr, dup := mk(), mk()
	if !tr.Equal(dup) {
		t.Fatal("identically recorded traces are not Equal")
	}
	tr.Merge(tr) // self-merge: the degenerate duplicate
	if !tr.Equal(dup) {
		t.Fatal("merge(T, T) changed T")
	}
	for i := 0; i < 3; i++ {
		tr.Merge(dup)
	}
	if !tr.Equal(dup) {
		t.Fatal("repeated duplicate merges changed the trace")
	}

	// A genuinely new mark does change it — Equal is not vacuous.
	tr.MarkRule(cn.r1)
	if tr.Equal(dup) {
		t.Fatal("Equal missed a differing rule mark")
	}
}

// TestMergeOrderIndependentAcrossSpaces: three workers record
// overlapping fragments against three independent replica spaces; the
// canonical merge is the same union no matter the arrival order —
// transfer then merge is commutative, so a coordinator may fold
// fragments in whatever order the network delivers them.
func TestMergeOrderIndependentAcrossSpaces(t *testing.T) {
	canon := buildChain(t)
	csp := canon.n.Space

	// Each worker marks a different (deliberately overlapping) slice of
	// the same coverage story in its own space.
	frag := func(t *testing.T) [3]*Trace {
		t.Helper()
		var out [3]*Trace
		for i := range out {
			w := buildChain(t)
			if w.n.Space == csp {
				t.Fatal("fixture error: replica shares the canonical space")
			}
			sp := w.n.Space
			tr := NewTrace()
			switch i {
			case 0:
				tr.MarkPacket(dataplane.Injected(w.d1), sp.DstPrefix(pfx(t, "10.0.0.0/9")))
				tr.MarkRule(w.r1)
			case 1:
				tr.MarkPacket(dataplane.Injected(w.d1), sp.DstPrefix(pfx(t, "10.0.0.0/16")))
				tr.MarkPacket(w.loc1Peer, sp.Proto(6))
				tr.MarkRule(w.r1) // overlaps worker 0's rule mark
			case 2:
				tr.MarkPacket(w.loc1Peer, sp.Proto(17))
				tr.MarkRule(w.r2)
			}
			out[i] = tr.TransferTo(csp)
		}
		return out
	}

	merge := func(order [3]int, frags [3]*Trace) *Trace {
		acc := NewTrace()
		for _, i := range order {
			acc.Merge(frags[i])
		}
		return acc
	}
	frags := frag(t)
	want := merge([3]int{0, 1, 2}, frags)
	for _, order := range [][3]int{{2, 1, 0}, {1, 0, 2}, {0, 2, 1}} {
		if got := merge(order, frags); !got.Equal(want) {
			t.Fatalf("merge order %v produced a different trace", order)
		}
	}

	// And with a straggler's duplicate arriving twice mid-stream.
	dup := merge([3]int{2, 0, 1}, frags)
	dup.Merge(frags[0])
	dup.Merge(frags[2])
	if !dup.Equal(want) {
		t.Fatal("duplicate fragment arrivals changed the union")
	}
}

// blockingWriter stalls the first write until released, signalling when
// the write has started.
type blockingWriter struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
	out     []byte
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.release
	})
	w.out = append(w.out, p...)
	return len(p), nil
}

func TestEncodeJSONDoesNotBlockMarking(t *testing.T) {
	cn := buildChain(t)
	sp := cn.n.Space
	tr := NewTrace()
	tr.MarkPacket(dataplane.Injected(cn.d1), sp.DstPrefix(pfx(t, "10.0.0.0/9")))

	w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	encDone := make(chan error, 1)
	go func() { encDone <- tr.EncodeJSON(w) }()

	<-w.started
	// The writer is stalled mid-encode. Marking must complete anyway:
	// the snapshot was taken under the lock, the write happens outside it.
	// (MarkRule only — a packet mark would touch the BDD manager, which
	// the stalled encoder has already finished with but which this test
	// keeps single-threaded anyway.)
	marked := make(chan struct{})
	go func() {
		tr.MarkRule(cn.r1)
		close(marked)
	}()
	select {
	case <-marked:
	case <-time.After(5 * time.Second):
		t.Fatal("MarkRule blocked behind a stalled EncodeJSON writer")
	}

	close(w.release)
	if err := <-encDone; err != nil {
		t.Fatal(err)
	}

	// The encoding reflects the pre-mark snapshot and decodes cleanly.
	dec, err := DecodeTraceJSON(cn.n, bytes.NewReader(w.out))
	if err != nil {
		t.Fatal(err)
	}
	if dec.RuleMarked(cn.r1) {
		t.Error("snapshot taken under the lock should not contain the later mark")
	}
	if !dec.PacketsAt(cn.n.Space, dataplane.Injected(cn.d1)).Equal(tr.PacketsAt(cn.n.Space, dataplane.Injected(cn.d1))) {
		t.Error("decoded packets differ")
	}
}
