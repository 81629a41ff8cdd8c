package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// StateCheckpoint is the application-state commitment a store journals
// alongside its blocks: the sealed (slot, root) pair plus the snapshot
// chunks that rebuild the committed tree (state.Export order). Journaling
// the chunks keeps a pruned store self-contained — recovery rebuilds the
// state machine from them, and dagstore verify re-derives the root —
// without the store ever interpreting their contents.
type StateCheckpoint struct {
	Slot   uint64
	Root   [32]byte
	Chunks [][]byte
}

// The head file: what stands in for the history below the horizon, and the
// convictions. Its name is foreign to parseSegName, so segment listing never
// sees it; every write replaces it through headFile + ".tmp", which Open
// sweeps. retiredHeadMagic is the head before it held proofs.
const (
	headFile         = "head"
	headMagic        = "BDHEAD2\n"
	retiredHeadMagic = "BDHEAD1\n"
)

// Head is the decoded head file, and the one description of a snapshot: the
// sticky per-builder prune horizon (the first retained seq of each builder,
// nil if nothing was cut), the base table of stand-ins the first blocks above
// it hang off, ordered by (builder, seq), and the state checkpoint that
// replaces the blocks below it (nil if none was set). A node serves its
// store's Head to joiners (syncsvc.Server), and a joiner installs the one it
// fetched (InstallSnapshot). A Head is immutable once published: the store
// swaps in a new one instead of changing it.
//
// Evidence is the store's own, never served: the equivocation proofs it
// journals (AppendEvidence), one per equivocator, in equivocator order. A
// proof's two blocks may never be insertable into the local DAG, so the
// block log cannot rebuild a ban: the proof itself is what lasts.
type Head struct {
	Horizon  map[types.ServerID]uint64
	Base     []dag.Base
	State    *StateCheckpoint
	Evidence []*evidence.Proof
}

// cut reports whether h stands in for history: a cut's or an install's, not
// a head holding only proofs.
func (h *Head) cut() bool { return len(h.Horizon) > 0 || len(h.Base) > 0 || h.State != nil }

// maxHorizonEntries bounds the horizon and base tables a decoder will
// allocate for (the roster is uint16-indexed, which bounds the proofs too;
// base adds referenced pruned refs on top).
const (
	maxHorizonEntries = 1 << 16
	maxBaseEntries    = 1 << 20
	maxStateChunks    = 1 << 20
)

// encode lays the head out: the magic, the horizon table, the base table,
// the optional state checkpoint, the proofs, and a CRC32 trailer over
// everything after the magic.
func (h *Head) encode() []byte {
	var w wire.Writer
	for i := range len(headMagic) {
		w.Byte(headMagic[i])
	}
	ids := slices.Sorted(maps.Keys(h.Horizon))
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uint16(uint16(id))
		w.Uvarint(h.Horizon[id])
	}
	w.Uvarint(uint64(len(h.Base)))
	for _, e := range h.Base {
		w.Uint16(uint16(e.Builder))
		w.Uvarint(e.Seq)
		w.Bytes32(e.Ref)
	}
	w.Bool(h.State != nil)
	if st := h.State; st != nil {
		w.Uvarint(st.Slot)
		w.Bytes32(st.Root)
		w.Uvarint(uint64(len(st.Chunks)))
		for _, c := range st.Chunks {
			w.VarBytes(c)
		}
	}
	w.Uvarint(uint64(len(h.Evidence)))
	for _, p := range h.Evidence {
		w.VarBytes(p.Encode())
	}
	w.Uint32(crc32.ChecksumIEEE(w.Bytes()[len(headMagic):]))
	return w.Bytes()
}

// decodeHead inverts Head.encode, and takes nothing encode would not
// write: the horizon table and the proofs in builder order, each builder
// once, each proof in its canonical encoding.
func decodeHead(data []byte, path string) (*Head, error) {
	if bytes.HasPrefix(data, []byte(retiredHeadMagic)) {
		return nil, fmt.Errorf("%w: %s: head magic %q, a retired format", ErrCorrupt, path, retiredHeadMagic)
	}
	if len(data) < len(headMagic)+4 || string(data[:len(headMagic)]) != headMagic {
		return nil, fmt.Errorf("%w: %s: bad head", ErrCorrupt, path)
	}
	body, trailer := data[len(headMagic):len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: %s: head checksum mismatch", ErrCorrupt, path)
	}
	r := wire.NewReader(body)
	h := &Head{}
	var prev types.ServerID
	nHorizon := r.Count(maxHorizonEntries)
	if nHorizon > 0 {
		h.Horizon = make(map[types.ServerID]uint64, nHorizon)
	}
	for i := range nHorizon {
		id := types.ServerID(r.Uint16())
		if i > 0 && id <= prev {
			return nil, fmt.Errorf("%w: %s: horizon table out of builder order", ErrCorrupt, path)
		}
		h.Horizon[id], prev = r.Uvarint(), id
	}
	nBase := r.Count(maxBaseEntries)
	h.Base = make([]dag.Base, 0, nBase)
	for range nBase {
		h.Base = append(h.Base, dag.Base{Builder: types.ServerID(r.Uint16()), Seq: r.Uvarint(), Ref: r.Bytes32()})
	}
	if r.Bool() {
		st := &StateCheckpoint{Slot: r.Uvarint(), Root: r.Bytes32()}
		nChunks := r.Count(maxStateChunks)
		st.Chunks = make([][]byte, 0, nChunks)
		for range nChunks {
			st.Chunks = append(st.Chunks, r.VarBytes())
		}
		h.State = st
	}
	nProofs := r.Count(maxHorizonEntries)
	for i := range nProofs {
		raw := r.VarBytes()
		p, err := evidence.Decode(raw)
		if err != nil || !bytes.Equal(p.Encode(), raw) {
			return nil, fmt.Errorf("%w: %s: bad proof %d", ErrCorrupt, path, i)
		}
		if i > 0 && p.Equivocator() <= h.Evidence[i-1].Equivocator() {
			return nil, fmt.Errorf("%w: %s: proofs out of equivocator order", ErrCorrupt, path)
		}
		h.Evidence = append(h.Evidence, p)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return h, nil
}

// Evidence returns the equivocation proofs the head holds — recovered by
// Open, re-verified against Options.Roster, and appended since — one per
// equivocator, in equivocator order. The slice is shared; treat it as
// read-only. Recovery wiring seeds the node's scorer with these before
// any traffic flows, which is how a ban survives a crash/restart.
func (s *Store) Evidence() []*evidence.Proof { return s.head.Load().Evidence }

// AppendEvidence journals one equivocation proof, one per equivocator
// (appending a second proof against an already-convicted builder is a
// no-op). Unlike block appends, evidence is durable before it returns,
// whatever the fsync policy: it rewrites the head the way a cut does, so
// the ban survives a crash. The head it writes is the one on disk plus the
// proof: a checkpoint SetStateCheckpoint holds only in memory stays there
// until the next cut.
func (s *Store) AppendEvidence(p *evidence.Proof) error {
	switch {
	case s.closed:
		return errors.New("store: append evidence after Close")
	case s.opts.ReadOnly:
		return errors.New("store: append evidence to read-only store")
	}
	cur := s.head.Load()
	i, dup := slices.BinarySearchFunc(cur.Evidence, p.Equivocator(), func(q *evidence.Proof, id types.ServerID) int {
		return cmp.Compare(q.Equivocator(), id)
	})
	if dup {
		return nil
	}
	proofs := slices.Insert(slices.Clone(cur.Evidence), i, p)
	disk, published := *s.durable, *cur
	disk.Evidence, published.Evidence = proofs, proofs
	return s.putHead(&disk, &published)
}

// readHead reads dir's head file, nil if it has none.
func readHead(dir string) (*Head, error) {
	path := filepath.Join(dir, headFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read head: %w", err)
	}
	return decodeHead(data, path)
}

// writeHead makes h dir's head: written to a temp file, fsynced, renamed
// over the old head, and the directory fsynced, so a crash leaves the old
// head or the new one and never a torn one.
func writeHead(dir string, h *Head) error {
	path := filepath.Join(dir, headFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create head: %w", err)
	}
	_, err = f.Write(h.encode())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: write head: %w", err)
	}
	return syncDir(dir)
}
