package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"blockdag/internal/block"
	"blockdag/internal/dag"
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

// snapshot is the decoded form of a kindSnap segment.
type snapshot struct {
	horizon map[types.ServerID]uint64
	base    []dag.Base
	state   *StateCheckpoint
	blocks  []*block.Block
}

// maxHorizonEntries bounds the horizon and base tables a decoder will
// allocate for (the roster is uint16-indexed; base adds referenced
// pruned refs on top).
const (
	maxHorizonEntries = 1 << 16
	maxBaseEntries    = 1 << 20
	maxStateChunks    = 1 << 20
)

// encodeSnapshot renders a snapshot segment, header and CRC trailer
// included: horizon table, base table, optional state checkpoint, then
// the retained blocks (a topological order) with predecessor references
// as uvarint indexes into base ∪ blocks (base entries occupy indexes
// 0..len(base)-1), shrinking each from 32 bytes to typically 1–2. Every
// retained block's predecessors must resolve within that combined table.
// An unpruned, stateless store writes the same format with empty tables.
func encodeSnapshot(blocks []*block.Block, base []dag.Base, horizon map[types.ServerID]uint64, st *StateCheckpoint) ([]byte, error) {
	w := wire.NewWriter(headerSize + len(blocks)*128)
	for _, c := range segHeader(kindSnap) {
		w.Byte(c)
	}
	ids := make([]types.ServerID, 0, len(horizon))
	for id := range horizon {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: tiny, deterministic order
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uint16(uint16(id))
		w.Uvarint(horizon[id])
	}
	w.Uvarint(uint64(len(base)))
	pos := make(map[block.Ref]int, len(base)+len(blocks))
	for i, e := range base {
		w.Uint16(uint16(e.Builder))
		w.Uvarint(e.Seq)
		w.Bytes32(e.Ref)
		pos[e.Ref] = i
	}
	w.Bool(st != nil)
	if st != nil {
		w.Uvarint(st.Slot)
		w.Bytes32(st.Root)
		w.Uvarint(uint64(len(st.Chunks)))
		for _, c := range st.Chunks {
			w.VarBytes(c)
		}
	}
	w.Uvarint(uint64(len(blocks)))
	for i, b := range blocks {
		err := putBlock(w, b, func(w *wire.Writer, p block.Ref) error {
			j, ok := pos[p]
			if !ok {
				return fmt.Errorf("store: snapshot block %v references %v outside the snapshot and base", b.Ref(), p)
			}
			w.Uvarint(uint64(j))
			return nil
		})
		if err != nil {
			return nil, err
		}
		pos[b.Ref()] = len(base) + i
	}
	body := w.Bytes()
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(body[headerSize:]))
	return append(body, trailer[:]...), nil
}

// decodeSnapshot inverts encodeSnapshot. Each block is reconstructed
// through the canonical wire encoding, so ref(B) is re-derived from the
// decoded fields and signatures verify exactly as for a WAL block.
func decodeSnapshot(data []byte, path string) (*snapshot, error) {
	if len(data) < headerSize+4 {
		return nil, fmt.Errorf("%w: %s: snapshot too short", ErrCorrupt, path)
	}
	body, trailer := data[headerSize:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: %s: snapshot checksum mismatch", ErrCorrupt, path)
	}
	r := wire.NewReader(body)
	sv := &snapshot{}
	nHorizon := r.Count(maxHorizonEntries)
	if nHorizon > 0 {
		sv.horizon = make(map[types.ServerID]uint64, nHorizon)
	}
	for i := 0; i < nHorizon; i++ {
		id := types.ServerID(r.Uint16())
		sv.horizon[id] = r.Uvarint()
	}
	nBase := r.Count(maxBaseEntries)
	sv.base = make([]dag.Base, 0, nBase)
	refs := make([]block.Ref, 0, nBase)
	for i := 0; i < nBase; i++ {
		e := dag.Base{Builder: types.ServerID(r.Uint16()), Seq: r.Uvarint(), Ref: r.Bytes32()}
		sv.base = append(sv.base, e)
		refs = append(refs, e.Ref)
	}
	if r.Bool() {
		st := &StateCheckpoint{Slot: r.Uvarint(), Root: r.Bytes32()}
		nChunks := r.Count(maxStateChunks)
		st.Chunks = make([][]byte, 0, nChunks)
		for i := 0; i < nChunks; i++ {
			st.Chunks = append(st.Chunks, r.VarBytes())
		}
		sv.state = st
	}
	count := r.Count(1 << 31)
	sv.blocks = make([]*block.Block, 0, count)
	for i := 0; i < count; i++ {
		b, err := getBlock(r, func(r *wire.Reader) (block.Ref, error) {
			j := r.Uvarint()
			if r.Err() != nil {
				return block.Ref{}, nil
			}
			if j >= uint64(len(refs)) {
				return block.Ref{}, fmt.Errorf("references forward index %d", j)
			}
			return refs[j], nil
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %s: block %d: %v", ErrCorrupt, path, i, err)
		}
		sv.blocks = append(sv.blocks, b)
		refs = append(refs, b.Ref())
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return sv, nil
}
