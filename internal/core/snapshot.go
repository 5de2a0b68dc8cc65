package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"yardstick/internal/netmodel"
)

// Trace snapshots make the accumulate-and-query service model crash
// safe: a daemon periodically writes the accumulated trace together
// with a fingerprint of the network it was recorded against, and on
// restart recovers the trace — but only if the loaded network still
// matches, since rule and location IDs are meaningless against any
// other network.

// ErrSnapshotMismatch is returned by the snapshot decoders and
// LoadSnapshot when the snapshot was recorded against a different
// network than the one provided. Callers should discard the snapshot
// and start from an empty trace.
var ErrSnapshotMismatch = errors.New("core: snapshot network fingerprint mismatch")

// Fingerprint returns a stable hex digest identifying a network's
// topology and rules. It hashes the canonical JSON encoding, which is
// deterministic (devices, interfaces, and rules serialize in ID order);
// a frozen network keeps that encoding and the hash's state every few
// hundred rules, so a fingerprint after a mutation resumes from the last
// state before the first rule it changed and hashes cached bytes
// (netmodel's Digest).
func Fingerprint(net *netmodel.Network) string {
	sum := net.Digest()
	return hex.EncodeToString(sum[:])
}

type snapshotJSON struct {
	Fingerprint string          `json:"fingerprint"`
	Trace       json.RawMessage `json:"trace"`
}

// DecodeSnapshot reads a legacy JSON snapshot — a fingerprint beside
// the cube-JSON trace, what checkpoints were before the arena codec —
// recorded against net, whose fingerprint the caller holds. It returns
// ErrSnapshotMismatch when the snapshot names another fingerprint.
// Nothing writes this format any more; the reader stays so a daemon
// upgrades across a restart.
func DecodeSnapshot(r io.Reader, net *netmodel.Network, fingerprint string) (*Trace, error) {
	var sj snapshotJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sj); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if sj.Fingerprint != fingerprint {
		return nil, ErrSnapshotMismatch
	}
	return DecodeTraceJSON(net, bytes.NewReader(sj.Trace))
}

// SaveSnapshotArena atomically writes the trace as an arena snapshot
// (EncodeFragmentArena) stamped with fingerprint, net's: the bytes go
// to a temporary file in the same directory that is synced and then
// renamed into place, so after a process crash mid-write or a power
// loss the path holds the previous snapshot or this one, never a short
// one (the data is on disk before the rename can be).
func SaveSnapshotArena(path string, net *netmodel.Network, fingerprint string, t *Trace) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := EncodeFragmentArena(tmp, net, fingerprint, t); err != nil {
		tmp.Close()
		return err
	}
	if err := errors.Join(tmp.Sync(), tmp.Close()); err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: save snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot file recorded against net, whose
// fingerprint the caller holds, sniffing the codec by magic: an arena
// snapshot (SaveSnapshotArena) or, with legacy reported true, a JSON one
// (DecodeSnapshot). It returns fs.ErrNotExist (wrapped) when no snapshot
// exists and ErrSnapshotMismatch when the snapshot belongs to a
// different network.
func LoadSnapshot(path string, net *netmodel.Network, fingerprint string) (t *Trace, legacy bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if legacy = !IsSnapshotArena(data); legacy {
		t, err = DecodeSnapshot(bytes.NewReader(data), net, fingerprint)
	} else {
		t, err = DecodeFragment(data, net, fingerprint)
	}
	return t, legacy, err
}
