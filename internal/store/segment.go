package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"blockdag/internal/block"
	"blockdag/internal/wire"
)

// Segment file format constants.
const (
	segMagic   = "BDSTOR1\n"
	headerSize = len(segMagic) + 1 // magic + kind byte

	// kindWAL is the WAL segment: each record lays its block out with
	// putBlock, a predecessor named by its distance back into the segment
	// (window) or, failing that, by its ref. Kind 1 was a WAL segment of
	// raw frames, kind 2 a blocks-only snapshot and kind 3 a snapshot of
	// the horizon, base, state and retained blocks; none is written nor
	// read any more, and the numbers stay retired.
	kindWAL byte = 4

	// recHeaderSize frames one WAL record: length + CRC32.
	recHeaderSize = 4 + 4

	extWAL = ".wal"
	// extSnap named a snapshot segment. Open refuses a directory holding
	// one, or the evidence sidecar the proofs had before the head held
	// them: nothing writes the formats any more, so nothing reads them.
	extSnap = ".snap"
)

// ErrCorrupt reports damage Open cannot attribute to a torn tail write: a
// bad magic or kind byte, a failed CRC in the middle of a segment, a head
// whose trailer checksum does not match, or a file of a retired format.
var ErrCorrupt = errors.New("store: corrupt segment")

// segFile is one WAL segment discovered on disk.
type segFile struct {
	index uint64
	path  string
	size  int64
}

// segName renders the file name for a WAL segment index.
func segName(index uint64) string { return fmt.Sprintf("%016x%s", index, extWAL) }

// parseSegName inverts segName; ok is false for foreign files.
func parseSegName(name string) (index uint64, ok bool) {
	base, found := strings.CutSuffix(name, extWAL)
	if !found || len(base) != 16 {
		return 0, false
	}
	index, err := strconv.ParseUint(base, 16, 64)
	return index, err == nil
}

// listSegments scans dir for WAL segment files, sorted by index. A
// snapshot segment or an evidence sidecar fails it as ErrCorrupt.
func listSegments(dir string) ([]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var segs []segFile
	for _, e := range entries {
		switch {
		case filepath.Ext(e.Name()) == extSnap:
			return nil, fmt.Errorf("%w: %s: a snapshot segment, a retired format", ErrCorrupt, e.Name())
		case e.Name() == "evidence.log":
			return nil, fmt.Errorf("%w: %s: an evidence sidecar, a retired format", ErrCorrupt, e.Name())
		}
		index, ok := parseSegName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("store: stat segment %s: %w", e.Name(), err)
		}
		segs = append(segs, segFile{index: index, path: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	slices.SortFunc(segs, func(a, b segFile) int { return cmp.Compare(a.index, b.index) })
	return segs, nil
}

// segHeader returns the 9-byte header for a segment of the given kind.
func segHeader(kind byte) []byte {
	h := make([]byte, 0, headerSize)
	h = append(h, segMagic...)
	return append(h, kind)
}

// checkHeader validates a WAL segment's header.
func checkHeader(data []byte, path string) error {
	if len(data) < headerSize || string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	if kind := data[len(segMagic)]; kind != kindWAL {
		return fmt.Errorf("%w: %s: unknown kind %d", ErrCorrupt, path, kind)
	}
	return nil
}

// segment is the decoded content of one WAL segment file.
type segment struct {
	// blocks are the segment's blocks in file order, and offs where each
	// one's record starts in the file.
	blocks []*block.Block
	offs   []int64
	// goodLen is the byte offset (within the whole file) just past the
	// last whole, checksummed record.
	goodLen int64
	// torn reports that bytes past goodLen exist but do not form a whole
	// record — a torn tail write if this is the final WAL segment.
	torn bool
	// bad is why the whole, checksummed record at goodLen does not decode:
	// corruption (or a buggy writer) in any segment, never a tear.
	bad error
}

// nextRecord returns the payload of the length- and CRC-framed record at
// data[off:] and the offset just past it; ok is false when the bytes there
// are not a whole record with a matching checksum.
func nextRecord(data []byte, off int) (payload []byte, next int, ok bool) {
	if len(data)-off < recHeaderSize {
		return nil, off, false
	}
	n := int(binary.BigEndian.Uint32(data[off : off+4]))
	sum := binary.BigEndian.Uint32(data[off+4 : off+8])
	body := data[off+recHeaderSize:]
	if n > wire.MaxFrame || n > len(body) || crc32.ChecksumIEEE(body[:n]) != sum {
		return nil, off, false
	}
	return body[:n], off + recHeaderSize + n, true
}

// scanWAL decodes the records of a WAL segment (data includes the header,
// already validated). Scanning stops at the first record that is not whole
// (torn: the caller decides whether that is a tolerable torn tail, in the
// final segment, or corruption, in any earlier one) or does not decode
// (bad: corruption wherever it is).
//
// Every block gets a frame of its own, rebuilt from the record's fields with
// predecessors resolved against the segment's window (getRecord) — one
// encode per block read — so none pins the segment's read buffer.
func scanWAL(data []byte) segment {
	seg := segment{goodLen: int64(headerSize)}
	var win window
	for off := headerSize; off < len(data); {
		payload, next, ok := nextRecord(data, off)
		if !ok {
			seg.torn = true
			break
		}
		b, err := getRecord(payload, &win)
		if err != nil {
			if len(payload) == 0 {
				seg.torn = true // length 0 and CRC 0: what a zero-filled tail reads as
			} else {
				// The checksum matched, so these bytes were written whole.
				seg.bad = fmt.Errorf("record at offset %d: %v", off, err)
			}
			break
		}
		seg.blocks = append(seg.blocks, b)
		seg.offs = append(seg.offs, int64(off))
		off = next
		seg.goodLen = int64(off)
	}
	return seg
}

// readSegment reads one WAL segment file up to the first record that is
// not whole, and fails with ErrCorrupt on a whole record that does not
// decode. Framing, checksums and block.Decode's bounds only — no block is
// validated against a DAG here.
func readSegment(sf segFile) (segment, error) {
	data, err := os.ReadFile(sf.path)
	if err != nil {
		return segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	if err := checkHeader(data, sf.path); err != nil {
		return segment{}, err
	}
	seg := scanWAL(data)
	if seg.bad != nil {
		return segment{}, fmt.Errorf("%w: %s: %v", ErrCorrupt, sf.path, seg.bad)
	}
	return seg, nil
}
