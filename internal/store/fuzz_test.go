package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// realSegments writes three all-to-all rounds of a 3-server DAG (requests
// included) through a store and returns the bytes of its WAL segment, and
// of the snapshot segment a pruning checkpoint then made of it — horizon,
// base table, state checkpoint and index-encoded predecessors all present.
func realSegments(f *testing.F) (wal, snap []byte) {
	f.Helper()
	h := dagtest.NewHarness(3)
	for r := 0; r < 3; r++ {
		h.Round(map[int][]block.Request{r: {{Label: "fuzz/seed", Data: []byte{byte(r), 1, 2}}}})
	}
	dir := f.TempDir()
	st, err := Open(dir, Options{Roster: h.Roster, Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range h.DAG.Blocks() {
		if err := st.Append(b); err != nil {
			f.Fatal(err)
		}
	}
	read := func(pattern string) []byte {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(files) != 1 {
			f.Fatalf("%s: %d files (err %v), want 1", pattern, len(files), err)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	if err := st.Sync(); err != nil {
		f.Fatal(err)
	}
	wal = read("*" + extWAL)
	st.SetStateCheckpoint(&StateCheckpoint{Slot: 2, Root: [32]byte{7}, Chunks: [][]byte{{1, 2, 3}, {4}}})
	if _, err := st.PruneTo(h.DAG, map[types.ServerID]uint64{0: 1, 1: 2}); err != nil {
		f.Fatal(err)
	}
	snap = read("*" + extSnap)
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	return wal, snap
}

// encodeSnapshot lays blocks out as a whole snapshot segment, naming each
// predecessor by its index into base ∪ blocks.
func encodeSnapshot(blocks []*block.Block, base []dag.Base, horizon map[types.ServerID]uint64, st *StateCheckpoint) ([]byte, error) {
	var out bytes.Buffer
	sw := newSnapshotWriter(&out)
	sw.head(horizon, base, st, len(blocks))
	pos := make(map[block.Ref]int, len(base)+len(blocks))
	for i, e := range base {
		pos[e.Ref] = i
	}
	for i, b := range blocks {
		if _, err := sw.put(b, func(w *wire.Writer, p block.Ref) error {
			j, ok := pos[p]
			if !ok {
				return fmt.Errorf("block %v references %v outside the snapshot", b.Ref(), p)
			}
			w.Uvarint(uint64(j))
			return nil
		}); err != nil {
			return nil, err
		}
		pos[b.Ref()] = len(base) + i
	}
	err := sw.end()
	return out.Bytes(), err
}

// allocated returns the bytes fn allocated, collected or not.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a decoder may allocate for an input of n bytes: a
// constant factor of n (a snapshot's one-byte predecessor index decodes to
// a 32-byte reference, held in the block and again in its rebuilt frame)
// plus slack for what the runtime and the fuzz worker allocate meanwhile.
// A length prefix believed before the bytes behind it are seen — the
// failure this guards against — allocates by the prefix, not by n.
func allocBound(n int) uint64 { return 512*uint64(n) + 1<<16 }

// rec frames a hand-laid kind-4 record: builder 0, seq as given (its
// uvarint bytes), the predecessor names, no requests and an empty
// signature — well-formed as far as the scanner looks, which checks no
// signature.
func rec(seq []byte, preds ...[]byte) []byte {
	p := append([]byte{0, 0}, seq...)
	p = append(p, byte(len(preds)))
	for _, name := range preds {
		p = append(p, name...)
	}
	return appendRecord(nil, append(p, 0, 0))
}

// literal and back are the two ways a kind-4 record names a predecessor.
func literal(ref block.Ref) []byte { return append([]byte{0}, ref[:]...) }
func back(k byte) []byte           { return []byte{k} }

// walOf lays records out as a kind-4 segment.
func walOf(records ...[]byte) []byte {
	return bytes.Join(append([][]byte{segHeader(kindWAL)}, records...), nil)
}

// handSegment is a hand-laid kind-4 segment whose last record the scanner
// takes (whole) or refuses.
type handSegment struct {
	name  string
	data  []byte
	whole bool
}

// handSegments are the names a kind-4 record can give a predecessor, one
// segment each: those putPred writes, and those it never would.
func handSegments(t testing.TB) []handSegment {
	g := scanWAL(walOf(rec([]byte{0})))
	if g.torn {
		t.Fatal("a hand-laid genesis record does not scan")
	}
	g0 := g.blocks[0].Ref()
	var full [][]byte // one record more than the window holds
	for seq := byte(0); seq <= walWindow; seq++ {
		full = append(full, rec([]byte{seq}))
	}
	return []handSegment{
		{"a literal", walOf(rec([]byte{1}, literal(g0))), true},
		{"a back-reference", walOf(rec([]byte{0}), rec([]byte{1}, back(1))), true},
		{"k past the records seen", walOf(rec([]byte{0}), rec([]byte{1}, back(2))), false},
		{"a literal the window names", walOf(rec([]byte{0}), rec([]byte{1}, literal(g0))), false},
		{"a truncated literal", walOf(rec([]byte{1}, literal(g0)[:20])), false},
		{"a padded seq", walOf(rec([]byte{0x80, 0x00})), false},
		{"the latest of two records", walOf(rec([]byte{0}), rec([]byte{0}), rec([]byte{1}, back(1))), true},
		{"past the latest of two records", walOf(rec([]byte{0}), rec([]byte{0}), rec([]byte{1}, back(2))), false},
		{"the oldest the window holds", walOf(append(full, rec([]byte{100}, back(walWindow)))...), true},
		{"k past the window", walOf(append(full, rec([]byte{100}, back(walWindow+1)))...), false},
	}
}

// TestScanWALNamesOneWay: a kind-4 record names each predecessor the one way
// the writer does — by its distance to the ref's latest record in the
// window, or by the literal ref when the window holds none — and the scanner
// refuses every other name as a bad record.
func TestScanWALNamesOneWay(t *testing.T) {
	for _, hs := range handSegments(t) {
		if seg := scanWAL(hs.data); seg.torn == hs.whole {
			t.Errorf("%s: scanned %d records, torn %v; want the last one taken: %v", hs.name, len(seg.blocks), seg.torn, hs.whole)
		}
	}
}

// FuzzScanWAL: the WAL record scanner Open reads every journal through —
// whatever a failing disk or a foreign writer left in the file —
// never panics, never allocates out of proportion to its input, never
// claims more good bytes than it was given, and hands back only blocks
// whose records re-frame to exactly the bytes it called good: the blocks
// written afresh through a new window. One encoding per record, so the
// scanner refuses a literal the window could have named and a distance past
// the ref's latest record.
func FuzzScanWAL(f *testing.F) {
	wal, _ := realSegments(f)
	f.Add(wal)
	f.Add(wal[:len(wal)-7])     // torn tail
	f.Add(wal[:headerSize+5])   // torn framing
	f.Add(segHeader(kindWAL))   // empty segment
	flipped := bytes.Clone(wal) // a payload bit flipped under its CRC
	flipped[headerSize+20] ^= 1
	f.Add(flipped)
	f.Add(append(segHeader(kindWAL), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0)) // 4 GiB length prefix
	for _, hs := range handSegments(f) {
		f.Add(hs.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < headerSize {
			return // Open never scans a segment without its header
		}
		if data[len(segMagic)] != kindWAL {
			return // checkHeader refuses it before any scan
		}
		var seg segment
		if got, limit := allocated(func() { seg = scanWAL(data) }), allocBound(len(data)); got > limit {
			t.Fatalf("scanWAL allocated %d bytes for a %d-byte segment (bound %d)", got, len(data), limit)
		}
		if seg.goodLen < int64(headerSize) || seg.goodLen > int64(len(data)) || seg.torn != (seg.goodLen < int64(len(data))) {
			t.Fatalf("goodLen %d torn %v for a %d-byte segment", seg.goodLen, seg.torn, len(data))
		}
		rebuilt := bytes.Clone(data[:headerSize])
		var w wire.Writer
		var win window
		for _, b := range seg.blocks {
			w.Truncate(0)
			putRecord(&w, b, &win)
			win.push(b.Ref())
			rebuilt = append(rebuilt, w.Bytes()...)
		}
		if !bytes.Equal(rebuilt, data[:seg.goodLen]) {
			t.Fatalf("%d scanned blocks re-frame to %d bytes, not the %d good ones", len(seg.blocks), len(rebuilt), seg.goodLen)
		}
	})
}

// FuzzDecodeSnapshot: the snapshot segment decoder never panics and never
// allocates out of proportion to its input — every count in the format is
// a length prefix an attacker or a bad sector picks — and a segment it
// accepts holds blocks whose predecessors all resolve within the segment:
// its base table, or a block decoded before.
func FuzzDecodeSnapshot(f *testing.F) {
	_, snap := realSegments(f)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	empty, err := encodeSnapshot(nil, nil, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The trailer CRC would stop the fuzzer at the door: fix it up, so
		// mutations reach the table and block decoders behind it.
		if len(data) >= headerSize+4 {
			data = bytes.Clone(data)
			body := data[headerSize : len(data)-4]
			binary.BigEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
		}
		var sv *snapshot
		var err error
		if got, limit := allocated(func() { sv, err = decodeSnapshot(data, "fuzz") }), allocBound(len(data)); got > limit {
			t.Fatalf("decodeSnapshot allocated %d bytes for a %d-byte segment (bound %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		known := make(map[block.Ref]bool, len(sv.base)+len(sv.blocks))
		for _, e := range sv.base {
			known[e.Ref] = true
		}
		for _, b := range sv.blocks {
			for _, p := range b.Preds {
				if !known[p] {
					t.Fatalf("accepted snapshot: block %v cites %v, which is neither in its base nor before it", b.Ref(), p)
				}
			}
			known[b.Ref()] = true
		}
	})
}
