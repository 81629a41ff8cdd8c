package store

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"maps"
	"slices"

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
	offs    []int64 // where each block starts in the segment
}

// maxHorizonEntries bounds the horizon and base tables a decoder will
// allocate for (the roster is uint16-indexed; base adds referenced
// pruned refs on top).
const (
	maxHorizonEntries = 1 << 16
	maxBaseEntries    = 1 << 20
	maxStateChunks    = 1 << 20
)

// snapshotWriter lays a snapshot segment out on out a piece at a time: the
// header, then head — horizon table, base table, optional state checkpoint,
// block count — then each retained block (put, a topological order), then
// the CRC trailer (end). A block names each predecessor by a uvarint index
// into base ∪ blocks (base entries occupy indexes 0..len(base)-1),
// shrinking it from 32 bytes to typically 1–2. An unpruned, stateless store
// writes the same format with empty tables. One block's bytes are held at a
// time, whatever the history.
type snapshotWriter struct {
	out io.Writer
	crc hash.Hash32
	n   int64       // bytes written: where the next piece starts in the segment
	w   wire.Writer // the piece being laid out
	err error
}

func newSnapshotWriter(out io.Writer) *snapshotWriter {
	sw := &snapshotWriter{out: out, crc: crc32.NewIEEE()}
	_, sw.err = out.Write(segHeader(kindSnap))
	sw.n = int64(headerSize)
	return sw
}

// flush writes the piece laid out and counts it into the checksum.
func (sw *snapshotWriter) flush() {
	if sw.err == nil {
		_, sw.err = sw.out.Write(sw.w.Bytes())
	}
	sw.crc.Write(sw.w.Bytes())
	sw.n += int64(sw.w.Len())
	sw.w.Truncate(0)
}

// head lays out the tables and the number of blocks that follow.
func (sw *snapshotWriter) head(horizon map[types.ServerID]uint64, base []dag.Base, st *StateCheckpoint, blocks int) {
	w := &sw.w
	ids := slices.Sorted(maps.Keys(horizon))
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uint16(uint16(id))
		w.Uvarint(horizon[id])
	}
	w.Uvarint(uint64(len(base)))
	for _, e := range base {
		w.Uint16(uint16(e.Builder))
		w.Uvarint(e.Seq)
		w.Bytes32(e.Ref)
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
	w.Uvarint(uint64(blocks))
	sw.flush()
}

// put lays out one block, its predecessors named by pred, and returns where
// it starts in the segment.
func (sw *snapshotWriter) put(b *block.Block, pred func(*wire.Writer, block.Ref) error) (int64, error) {
	at := sw.n
	if err := putBlock(&sw.w, b, pred); err != nil {
		return 0, err
	}
	sw.flush()
	return at, sw.err
}

// end writes the trailer: the checksum of everything after the header.
func (sw *snapshotWriter) end() error {
	if sw.err == nil {
		_, sw.err = sw.out.Write(sw.crc.Sum(nil))
		sw.n += int64(sw.crc.Size())
	}
	return sw.err
}

// decodeSnapshot inverts snapshotWriter. Each block is reconstructed
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
		sv.offs = append(sv.offs, int64(headerSize+len(body)-r.Remaining()))
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
