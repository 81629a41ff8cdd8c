package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"blockdag/internal/evidence"
	"blockdag/internal/types"
)

// Evidence sidecar file. Equivocation proofs live outside the block WAL
// on purpose: a proof's two blocks may never be insertable into the
// local DAG (their predecessors might be missing forever), so replaying
// the block log cannot be relied on to reconstruct a ban — the proof
// itself is the durable artifact. The sidecar's filename is foreign to
// parseSegName, which keeps it invisible to segment listing and therefore
// safe from a cut's deletions and stale-segment sweeps.
const (
	evidenceFile  = "evidence.log"
	evidenceMagic = "BDEVID1\n"
)

// loadEvidence recovers the evidence sidecar, tolerating a torn tail the
// same way WAL recovery does: scanning stops at the first incomplete or
// checksum-failing record and read-write opens truncate the tail off.
// Each recovered proof is re-verified against the roster; a proof that
// no longer verifies is dropped rather than allowed to resurrect a ban.
func (s *Store) loadEvidence() error {
	s.evHave = make(map[types.ServerID]struct{})
	path := filepath.Join(s.dir, evidenceFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read evidence: %w", err)
	}
	if len(data) < len(evidenceMagic) {
		// Torn header: the file died before the magic landed. Start over.
		if !s.opts.ReadOnly {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: remove torn evidence file: %w", err)
			}
		}
		return nil
	}
	if string(data[:len(evidenceMagic)]) != evidenceMagic {
		return fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	off := len(evidenceMagic)
	for off < len(data) {
		payload, next, ok := nextRecord(data, off)
		if !ok {
			break
		}
		off = next
		p, err := evidence.Decode(payload)
		if err != nil {
			// Whole, checksummed record that is not a proof: a buggy
			// writer, not a tear. Refuse the store rather than silently
			// losing a ban.
			return fmt.Errorf("%w: %s: bad evidence record: %v", ErrCorrupt, path, err)
		}
		if p.Verify(s.opts.Roster) != nil {
			continue // e.g. written under a different roster; not a ban here
		}
		if _, dup := s.evHave[p.Equivocator()]; dup {
			continue
		}
		s.evHave[p.Equivocator()] = struct{}{}
		s.evidence = append(s.evidence, p)
	}
	if off < len(data) && !s.opts.ReadOnly {
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("store: truncate torn evidence tail: %w", err)
		}
	}
	return nil
}

// Evidence returns the equivocation proofs recovered by Open plus those
// appended since, one per equivocator, in append order. The slice is
// shared; treat it as read-only. Recovery wiring replays these into the
// evidence pool and scorer before any traffic flows, which is how a ban
// survives a crash/restart.
func (s *Store) Evidence() []*evidence.Proof { return s.evidence }

// AppendEvidence journals one equivocation proof, one per equivocator
// (appending a second proof against an already-convicted builder is a
// no-op). Unlike block appends, evidence is always forced durable before
// returning, whatever the fsync policy: proofs are rare, tiny, and the
// whole point is that the resulting ban survives a crash.
func (s *Store) AppendEvidence(p *evidence.Proof) error {
	if s.closed {
		return errors.New("store: append evidence after Close")
	}
	if s.opts.ReadOnly {
		return errors.New("store: append evidence to read-only store")
	}
	if _, dup := s.evHave[p.Equivocator()]; dup {
		return nil
	}
	path := filepath.Join(s.dir, evidenceFile)
	fresh := false
	if s.evFile == nil {
		_, statErr := os.Stat(path)
		fresh = errors.Is(statErr, os.ErrNotExist)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: open evidence file: %w", err)
		}
		s.evFile = f
		if fresh {
			if _, err := f.Write([]byte(evidenceMagic)); err != nil {
				return fmt.Errorf("store: write evidence header: %w", err)
			}
		}
	}
	rec := appendRecord(nil, p.Encode())
	if _, err := s.evFile.Write(rec); err != nil {
		return fmt.Errorf("store: append evidence: %w", err)
	}
	if err := s.evFile.Sync(); err != nil {
		return fmt.Errorf("store: fsync evidence: %w", err)
	}
	if fresh {
		if err := syncDir(s.dir); err != nil {
			return err
		}
	}
	s.evHave[p.Equivocator()] = struct{}{}
	s.evidence = append(s.evidence, p)
	return nil
}
