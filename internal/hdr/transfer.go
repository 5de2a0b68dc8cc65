package hdr

import (
	"fmt"

	"yardstick/internal/bdd"
)

// Transfer is a reusable copy session importing sets from one space into
// another (see bdd.Transfer). The session holds one memo across every
// Move, so moving many sets between the same pair of spaces — a trace's
// per-location results during a parallel merge — shares the DAG walk and
// allocates the memo once instead of per set. When the source space is a
// Clone of the destination (or vice versa), shared-prefix nodes are
// recognized and skipped, making a merge O(new nodes).
//
// The session reads src's manager and writes dst's; hold both spaces
// single-threaded for its lifetime, and do not grow src while it is
// live. Charged work is counted by dst and polls dst's watched context.
type Transfer struct {
	src, dst *Space
	tr       *bdd.Transfer
}

// NewTransfer starts a transfer session from src into dst. The spaces
// must be of the same family (and therefore the same width).
func NewTransfer(src, dst *Space) *Transfer {
	if src == nil || dst == nil {
		panic("hdr: NewTransfer with nil space")
	}
	if src.family != dst.family {
		panic(fmt.Sprintf("hdr: NewTransfer across families (%v -> %v)", src.family, dst.family))
	}
	return &Transfer{src: src, dst: dst, tr: dst.m.BeginTransfer(src.m)}
}

// Src returns the session's source space.
func (t *Transfer) Src() *Space { return t.src }

// Move imports a set from the session's source space and returns the
// equivalent set in the destination, canonical there (node-equal to the
// same set built natively).
func (t *Transfer) Move(a Set) Set {
	if a.sp != t.src {
		panic("hdr: Move of a set from outside the session's source space")
	}
	return Set{t.dst, t.tr.Copy(a.n)}
}
