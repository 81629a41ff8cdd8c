package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/wire"
)

// loc is one cell of the location column: where a row's record lies, as the
// segment (an index into Store.segs, plus one) and the record's offset in
// the file, in one word. 0 is no record; pruned, a record PruneTo deleted.
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

// segMeta is what reading a record back needs of its segment: the file, the
// kind, and whom each record names. Record j — a snapshot's block j — is
// named first+j while the names run on, names[j] once they stop (a
// duplicate record Open dropped, a row the sink skipped, a pruned row). The
// first opened records are those Open read, named by their index into
// Store.recovered; the rest were written since, named by their row.
type segMeta struct {
	index  uint64
	kind   byte
	opened int
	first  int
	n      int
	names  []int32
	sorted bool  // names ascend: record finds one by binary search
	size   int64 // a snapshot's, in bytes: its blocks are not framed
}

// name returns the name of record j.
func (m *segMeta) name(j int) int {
	if m.names == nil {
		return m.first + j
	}
	return int(m.names[j])
}

// add names the segment's next record.
func (m *segMeta) add(name int) {
	switch {
	case m.names == nil && m.n == 0:
		m.first = name
	case m.names == nil && name != m.first+m.n:
		m.names = make([]int32, m.n, m.n+1)
		for j := range m.names {
			m.names[j] = int32(m.first + j)
		}
		m.sorted = name > m.first+m.n-1
	case m.names != nil:
		m.sorted = m.sorted && int32(name) > m.names[m.n-1]
	}
	if m.names != nil {
		m.names = append(m.names, int32(name))
	}
	m.n++
}

// record returns the first record named name, -1 for none.
func (m *segMeta) record(name int) int {
	switch {
	case m.names == nil:
		if j := name - m.first; j >= 0 && j < m.n {
			return j
		}
	case m.sorted:
		if j, ok := slices.BinarySearch(m.names, int32(name)); ok {
			return j
		}
	default:
		return slices.Index(m.names, int32(name))
	}
	return -1
}

// Rows hands the store the reference of each row its sink numbers — the
// DAG's (core.Server.SetJournal hands it the server's). Block reads the
// records written since Open back against them: the store keeps no
// reference of a block it appends, only where the record lies.
func (s *Store) Rows(ref func(row int) block.Ref) { s.rowRef = ref }

// refAt returns the reference record j of m names.
func (s *Store) refAt(m *segMeta, j int) (block.Ref, error) {
	switch name := m.name(j); {
	case j < m.opened:
		return s.recovered[name], nil
	case s.rowRef == nil:
		return block.Ref{}, errors.New("no references to read the record back against (Rows)")
	default:
		return s.rowRef(name), nil
	}
}

// Block returns the block of row — the row-th block the sink was handed,
// Open's first — read back: from the group-commit batch while it is there,
// else from its record, the canonical frame rebuilt by the codec Open reads
// with and its predecessors named again from the location column (a
// back-reference is an earlier record of the same segment, a snapshot's
// table index a base entry or an earlier block of it). Signatures are not
// checked again: this process checked every block before journaling it,
// or before Restore absorbed it. A record that does not rebuild the row's
// reference is an error; a row PruneTo deleted is dag.ErrPruned.
func (s *Store) Block(row int) (*block.Block, error) {
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
	m := s.segs[l.seg()]
	j := m.record(row)
	if j < 0 {
		return nil, fmt.Errorf("store: row %d is no record of segment %d", row, m.index)
	}
	b, err := s.readBlock(m, j, l.off())
	if err != nil {
		return nil, fmt.Errorf("store: read row %d back: %w", row, err)
	}
	if want, err := s.refAt(m, j); err != nil || b.Ref() != want {
		return nil, fmt.Errorf("store: row %d read back as %v, want %v (%v)", row, b.Ref(), want, err)
	}
	return b, nil
}

// readBlock decodes record j of m, which starts at off.
func (s *Store) readBlock(m *segMeta, j int, off int64) (*block.Block, error) {
	f, err := s.reader(m)
	if err != nil {
		return nil, err
	}
	if m.kind != kindSnap {
		payload, err := readRecord(f, off)
		switch {
		case err != nil:
			return nil, err
		case m.kind == kindFrameWAL:
			return block.Decode(payload)
		}
		r := wire.NewReader(payload)
		b, err := getBlock(r, func(r *wire.Reader) (block.Ref, error) {
			k := int(r.Uvarint())
			switch {
			case r.Err() != nil:
				return block.Ref{}, nil
			case k == 0:
				return r.Bytes32(), nil
			case k > j:
				return block.Ref{}, fmt.Errorf("back-reference %d past the %d records before it", k, j)
			}
			return s.refAt(m, j-k)
		})
		if err == nil {
			err = r.Close()
		}
		return b, err
	}
	// A snapshot's block is not framed: read on until it decodes.
	for n := int64(4 << 10); ; n *= 2 {
		buf := make([]byte, min(n, m.size-off))
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, err
		}
		b, err := getBlock(wire.NewReader(buf), func(r *wire.Reader) (block.Ref, error) {
			i := int(r.Uvarint())
			switch {
			case r.Err() != nil:
				return block.Ref{}, nil
			case i < len(s.base):
				return s.base[i].Ref, nil
			case i-len(s.base) >= j:
				return block.Ref{}, fmt.Errorf("references forward index %d", i)
			}
			return s.refAt(m, i-len(s.base))
		})
		if err == nil || off+n >= m.size {
			return b, err
		}
	}
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
		f, err := os.Open(filepath.Join(s.dir, segName(m.index, m.kind == kindSnap)))
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
