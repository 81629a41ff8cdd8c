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

	kindWAL byte = 1
	// kindSnap is the snapshot segment: prune horizon, pruned-history
	// base table, state commitment and its snapshot chunks (all possibly
	// empty), then the retained blocks. Kind 2 was a blocks-only
	// predecessor no release ever shipped; it is neither written nor
	// read, and the number stays retired.
	kindSnap byte = 3

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

// appendRecord frames one block payload as a WAL record.
func appendRecord(dst []byte, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// walScan is the result of scanning one WAL segment body.
type walScan struct {
	blocks []*block.Block
	// goodLen is the byte offset (within the whole file) just past the
	// last whole, checksummed record.
	goodLen int64
	// torn reports that bytes past goodLen exist but do not form a valid
	// record — a torn tail write if this is the final segment.
	torn bool
}

// scanWAL decodes the records of a WAL segment (data includes the
// header, already validated). Scanning stops at the first incomplete or
// corrupt record; the caller decides whether that is a tolerable torn
// tail (final segment) or corruption (any earlier segment).
func scanWAL(data []byte) walScan {
	res := walScan{goodLen: int64(headerSize)}
	off := headerSize
	for off < len(data) {
		if len(data)-off < recHeaderSize {
			res.torn = true
			return res
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		body := data[off+recHeaderSize:]
		if n > wire.MaxFrame || n > len(body) {
			res.torn = true
			return res
		}
		payload := body[:n]
		if crc32.ChecksumIEEE(payload) != sum {
			res.torn = true
			return res
		}
		// Decode retains payload as the block's cached canonical frame
		// (encode-once invariant), so every scanned block carries its WAL
		// record bytes: downstream consumers — syncsvc streaming above
		// all — re-serve the on-disk encoding verbatim, zero-copy. The
		// cost is that a live block pins its segment's read buffer.
		b, err := block.Decode(payload)
		if err != nil {
			// The checksum matched, so these bytes were written
			// whole: a malformed block is corruption (or a buggy
			// writer), not a tear.
			res.torn = true
			return res
		}
		res.blocks = append(res.blocks, b)
		off += recHeaderSize + n
		res.goodLen = int64(off)
	}
	return res
}

// ScanDir reads the blocks currently on disk in dir without opening the
// store: the newest snapshot first, then the WAL segments in index order,
// duplicates dropped — a topological order, exactly what recovery replays.
// This is the serving side of bulk catch-up (package syncsvc): decode-only
// and CRC-checked, but signatures are NOT verified — the receiving client
// must revalidate every block, which it does anyway because it treats the
// serving peer as untrusted. Every returned block carries its on-disk
// record payload as its cached canonical encoding (block.Decode retains
// the frame), so serving a stream from these blocks never re-serializes.
//
// ScanDir may run concurrently with a live writer on the same directory:
// a partial record at the tail of a segment (an append in progress, or a
// torn tail a future open will repair) simply ends that segment's
// contribution, and a file deleted mid-scan (a concurrent Checkpoint)
// returns an error — the caller reports a transient failure and the
// client retries.
func ScanDir(dir string) ([]*block.Block, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	start := 0
	for i, sf := range segs {
		if sf.snap {
			start = i
		}
	}
	var (
		blocks []*block.Block
		seen   = make(map[block.Ref]struct{})
	)
	admit := func(bs []*block.Block) {
		for _, b := range bs {
			if _, dup := seen[b.Ref()]; dup {
				continue
			}
			seen[b.Ref()] = struct{}{}
			blocks = append(blocks, b)
		}
	}
	for _, sf := range segs[start:] {
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return nil, fmt.Errorf("store: scan segment: %w", err)
		}
		if len(data) < headerSize {
			continue // segment creation in progress (or torn header)
		}
		kind, err := checkHeader(data, sf.path)
		if err != nil {
			return nil, err
		}
		switch kind {
		case kindSnap:
			sv, err := decodeSnapshot(data, sf.path)
			if err != nil {
				return nil, err
			}
			admit(sv.blocks)
		case kindWAL:
			admit(scanWAL(data).blocks)
		}
	}
	return blocks, nil
}
