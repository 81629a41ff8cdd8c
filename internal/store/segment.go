package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"blockdag/internal/block"
	"blockdag/internal/wire"
)

// Segment file format constants.
const (
	segMagic   = "BDSTOR1\n"
	headerSize = len(segMagic) + 1 // magic + kind byte

	// kindSnap is the snapshot segment: prune horizon, pruned-history
	// base table, state commitment and its snapshot chunks (all possibly
	// empty), then the retained blocks. Kind 1 was a WAL segment of raw
	// frames and kind 2 a blocks-only snapshot; neither is written nor
	// read any more, and both numbers stay retired.
	kindSnap byte = 3
	// kindWAL is the WAL segment: each record lays its block out as a
	// snapshot does (putBlock), a predecessor named by its distance back
	// into the segment (window) or, failing that, by its ref.
	kindWAL byte = 4

	// recHeaderSize frames one WAL record: length + CRC32.
	recHeaderSize = 4 + 4

	extWAL  = ".wal"
	extSnap = ".snap"
)

// ErrCorrupt reports damage Open cannot attribute to a torn tail write: a
// bad magic or kind byte, a failed CRC in the middle of a segment, or a
// snapshot whose trailer checksum does not match.
var ErrCorrupt = errors.New("store: corrupt segment")

// segFile is one segment discovered on disk.
type segFile struct {
	index uint64
	snap  bool
	path  string
	size  int64
}

// segName renders the file name for a segment index.
func segName(index uint64, snap bool) string {
	ext := extWAL
	if snap {
		ext = extSnap
	}
	return fmt.Sprintf("%016x%s", index, ext)
}

// parseSegName inverts segName; ok is false for foreign files.
func parseSegName(name string) (index uint64, snap bool, ok bool) {
	ext := filepath.Ext(name)
	switch ext {
	case extWAL:
		snap = false
	case extSnap:
		snap = true
	default:
		return 0, false, false
	}
	base := strings.TrimSuffix(name, ext)
	if len(base) != 16 {
		return 0, false, false
	}
	index, err := strconv.ParseUint(base, 16, 64)
	if err != nil {
		return 0, false, false
	}
	return index, snap, true
}

// listSegments scans dir for segment files, sorted by index (snapshots
// before a WAL segment of the same index, which cannot happen in a
// healthy store but keeps the order total).
func listSegments(dir string) ([]segFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var segs []segFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		index, snap, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("store: stat segment %s: %w", e.Name(), err)
		}
		segs = append(segs, segFile{
			index: index,
			snap:  snap,
			path:  filepath.Join(dir, e.Name()),
			size:  info.Size(),
		})
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].index != segs[j].index {
			return segs[i].index < segs[j].index
		}
		return segs[i].snap && !segs[j].snap
	})
	return segs, nil
}

// segHeader returns the 9-byte header for a segment of the given kind.
func segHeader(kind byte) []byte {
	h := make([]byte, 0, headerSize)
	h = append(h, segMagic...)
	return append(h, kind)
}

// checkHeader validates a segment's header and returns its kind.
func checkHeader(data []byte, path string) (byte, error) {
	if len(data) < headerSize || string(data[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	kind := data[len(segMagic)]
	if kind != kindWAL && kind != kindSnap {
		return 0, fmt.Errorf("%w: %s: unknown kind %d", ErrCorrupt, path, kind)
	}
	return kind, nil
}

// appendRecord frames one payload as a record: the evidence sidecar's (WAL
// records are framed in place, putRecord).
func appendRecord(dst []byte, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// segment is the decoded content of one segment file.
type segment struct {
	kind byte
	// snap is the snapshot's tables (horizon, base, state); nil for a WAL.
	snap *snapshot
	// blocks are the segment's blocks in file order, and offs where each
	// one's record starts in the file.
	blocks []*block.Block
	offs   []int64
	// goodLen is the byte offset (within the whole file) just past the
	// last whole, checksummed record.
	goodLen int64
	// torn reports that bytes past goodLen exist but do not form a valid
	// record — a torn tail write if this is the final WAL segment.
	torn bool
}

// nextRecord returns the payload of the length- and CRC-framed record at
// data[off:] and the offset just past it; ok is false when the bytes there
// are not a whole record with a matching checksum. The WAL and the
// evidence sidecar share the framing.
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
// already validated). Scanning stops at the first incomplete or corrupt
// record; the caller decides whether that is a tolerable torn tail (final
// segment) or corruption (any earlier segment).
//
// Every block gets a frame of its own, rebuilt from the record's fields with
// predecessors resolved against the segment's window (getRecord) — one
// encode per block read, as a snapshot's blocks have always cost — so none
// pins the segment's read buffer.
func scanWAL(data []byte) segment {
	seg := segment{kind: kindWAL, goodLen: int64(headerSize)}
	var win window
	for off := headerSize; off < len(data); {
		payload, next, ok := nextRecord(data, off)
		if !ok {
			seg.torn = true
			break
		}
		b, err := getRecord(payload, &win)
		if err != nil {
			// The checksum matched, so these bytes were written
			// whole: a malformed block is corruption (or a buggy
			// writer), not a tear.
			seg.torn = true
			break
		}
		seg.blocks = append(seg.blocks, b)
		seg.offs = append(seg.offs, int64(off))
		off = next
		seg.goodLen = int64(off)
	}
	return seg
}

// readSegment reads one segment file and decodes it by kind: a snapshot
// whole (its trailer checksum covers it), a WAL up to the first record
// that is not. Framing and checksums only — no block is validated here.
func readSegment(sf segFile) (segment, error) {
	data, err := os.ReadFile(sf.path)
	if err != nil {
		return segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	kind, err := checkHeader(data, sf.path)
	if err != nil {
		return segment{}, err
	}
	if (kind == kindSnap) != sf.snap {
		return segment{}, fmt.Errorf("%w: %s: kind/extension mismatch", ErrCorrupt, sf.path)
	}
	if kind != kindSnap {
		return scanWAL(data), nil
	}
	sv, err := decodeSnapshot(data, sf.path)
	if err != nil {
		return segment{}, err
	}
	return segment{kind: kind, snap: sv, blocks: sv.blocks, offs: sv.offs, goodLen: int64(len(data))}, nil
}

// newestSnapshot splits a sorted segment listing at its newest snapshot:
// recovery reads live (the snapshot, if any, and the WAL segments after
// it); stale is what a checkpoint that crashed mid-cleanup left behind.
func newestSnapshot(segs []segFile) (stale, live []segFile) {
	start := 0
	for i, sf := range segs {
		if sf.snap {
			start = i
		}
	}
	return segs[:start], segs[start:]
}
