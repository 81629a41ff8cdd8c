package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/types"
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

// FuzzScanWAL: the WAL record scanner Open and ScanDir read every journal
// through — whatever a failing disk or a foreign writer left in the file —
// never panics, never allocates out of proportion to its input, never
// claims more good bytes than it was given, and hands back only blocks
// whose records re-frame to exactly the bytes it called good.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < headerSize {
			return // Open and ScanDir never scan a segment without its header
		}
		var seg segment
		if got, limit := allocated(func() { seg = scanWAL(data) }), allocBound(len(data)); got > limit {
			t.Fatalf("scanWAL allocated %d bytes for a %d-byte segment (bound %d)", got, len(data), limit)
		}
		if seg.goodLen < int64(headerSize) || seg.goodLen > int64(len(data)) || seg.torn != (seg.goodLen < int64(len(data))) {
			t.Fatalf("goodLen %d torn %v for a %d-byte segment", seg.goodLen, seg.torn, len(data))
		}
		rebuilt := bytes.Clone(data[:headerSize])
		for _, b := range seg.blocks {
			rebuilt = appendRecord(rebuilt, b.Encode())
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
