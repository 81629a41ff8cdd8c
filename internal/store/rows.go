package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// loc is one cell of the location column: where a row's record lies, as the
// segment (an index into Store.segs, plus one) and the record's offset in
// the file, in one word. 0 is no record; pruned, a row under the prune
// horizon (PruneTo).
type loc uint64

const (
	locShift        = 40 // offsets below 1 TiB, segments below 2^24
	pruned   loc    = 1<<64 - 1
	noLoc    loc    = 0
	offMask  uint64 = 1<<locShift - 1
)

func locOf(seg int, off int64) loc { return loc(uint64(seg+1)<<locShift | uint64(off)) }
func (l loc) seg() int             { return int(l>>locShift) - 1 }
func (l loc) off() int64           { return int64(uint64(l) & offMask) }

// segMeta is what the store keeps of a WAL segment: its file, and per
// builder one past the highest seq among its records — every record it
// holds, rows or not — which says whether a cut may delete it. A record
// names nothing the reader resolves: the row's predecessors come with the
// request (Block).
type segMeta struct {
	index uint64
	top   map[types.ServerID]uint64
}

// note counts b's record into m.
func (m *segMeta) note(b *block.Block) {
	if m.top == nil {
		m.top = make(map[types.ServerID]uint64)
	}
	m.top[b.Builder] = max(m.top[b.Builder], b.Seq+1)
}

// above reports whether m holds a record at or above horizon.
func (m *segMeta) above(horizon map[types.ServerID]uint64) bool {
	for id, top := range m.top {
		if top > horizon[id] {
			return true
		}
	}
	return false
}

// Block returns the block of row — the row-th block the sink was handed,
// Open's first — read back over preds, the references of the row's
// predecessors the DAG keeps: from the group-commit batch while it is there,
// else from its record, the canonical frame rebuilt by the codec Open reads
// with, each predecessor the record names standing for the row's. Signatures
// are not checked again: this process checked every block before journaling
// it, or before Restore absorbed it; whether the block is the row's is the
// DAG's check. A record naming another number of predecessors than preds is
// an error; a row PruneTo deleted is dag.ErrPruned.
func (s *Store) Block(row int, preds []block.Ref) (*block.Block, error) {
	for _, p := range s.batch {
		if p.row == row {
			return p.b, nil
		}
	}
	if b := s.stray[row]; b != nil {
		return b, nil
	}
	var l loc
	if row >= 0 && row < len(s.locs) {
		l = s.locs[row]
	}
	switch l {
	case noLoc:
		return nil, fmt.Errorf("store: no record of row %d", row)
	case pruned:
		return nil, fmt.Errorf("store: row %d: %w", row, dag.ErrPruned)
	}
	b, err := s.readBlock(s.segs[l.seg()], l.off(), preds)
	if err != nil {
		return nil, fmt.Errorf("store: read row %d back: %w", row, err)
	}
	return b, nil
}

// readBlock decodes the record of m that starts at off over preds.
func (s *Store) readBlock(m *segMeta, off int64, preds []block.Ref) (*block.Block, error) {
	f, err := s.reader(m)
	if err != nil {
		return nil, err
	}
	payload, err := readRecord(f, off)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(payload)
	b, err := getRow(r, preds)
	if err == nil {
		err = r.Close()
	}
	return b, err
}

// getRow reads a record's block over preds: it consumes the name of each
// predecessor — a distance back, followed by the 32-byte ref when that is
// 0 — and takes preds[i] for it.
func getRow(r *wire.Reader, preds []block.Ref) (*block.Block, error) {
	i := 0
	b, err := getBlock(r, func(r *wire.Reader) (block.Ref, error) {
		if k := r.Uvarint(); k == 0 {
			r.Bytes32()
		}
		if i == len(preds) {
			return block.Ref{}, fmt.Errorf("record names more predecessors than the row's %d", len(preds))
		}
		i++
		return preds[i-1], nil
	})
	if err == nil && i != len(preds) {
		return nil, fmt.Errorf("record names %d predecessors, the row %d", i, len(preds))
	}
	return b, err
}

// readRecord reads the payload of the record at off, checksum checked.
func readRecord(f *os.File, off int64) ([]byte, error) {
	var hdr [recHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > wire.MaxFrame {
		return nil, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := f.ReadAt(payload, off+recHeaderSize); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// reader returns m's file, open for reading: the file Block read last stays
// open for the next.
func (s *Store) reader(m *segMeta) (*os.File, error) {
	if s.rd == nil || s.rdIndex != m.index {
		s.closeReader()
		f, err := os.Open(filepath.Join(s.dir, segName(m.index)))
		if err != nil {
			return nil, err
		}
		s.rd, s.rdIndex = f, m.index
	}
	return s.rd, nil
}

// closeReader releases the file Block read last.
func (s *Store) closeReader() {
	if s.rd != nil {
		_ = s.rd.Close()
		s.rd = nil
	}
}
