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
	"blockdag/internal/evidence"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// realSegments writes three all-to-all rounds of a 3-server DAG (requests
// included) through a store and returns the bytes of its WAL segment, and
// the heads a cut of it and an install write — horizon, base table and
// state checkpoint all present, the install's beside one proof — and
// withProofs: the cut's head once one and once two proofs were appended,
// and a head holding one proof and nothing else.
func realSegments(f *testing.F) (wal, cut, installed []byte, withProofs [][]byte) {
	f.Helper()
	h := dagtest.NewHarness(3)
	for r := 0; r < 3; r++ {
		h.Round(map[int][]block.Request{r: {{Label: "fuzz/seed", Data: []byte{byte(r), 1, 2}}}})
	}
	fork := func(builder int) *evidence.Proof {
		return evidence.New(h.Seal(builder, 7, nil, block.Request{Label: "a"}), h.Seal(builder, 7, nil, block.Request{Label: "b"}))
	}
	proofs := []*evidence.Proof{fork(2), fork(1)}
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
	read := func(dir, pattern string) []byte {
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
	wal = read(dir, "*"+extWAL)
	sc := &StateCheckpoint{Slot: 2, Root: [32]byte{7}, Chunks: [][]byte{{1, 2, 3}, {4}}}
	st.SetStateCheckpoint(sc)
	if err := st.PruneTo(h.DAG, map[types.ServerID]uint64{0: 1, 1: 2}); err != nil {
		f.Fatal(err)
	}
	cut = read(dir, headFile)
	base := st.Head().Base
	for _, p := range proofs {
		if err := st.AppendEvidence(p); err != nil {
			f.Fatal(err)
		}
		withProofs = append(withProofs, read(dir, headFile))
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}

	dir = f.TempDir()
	st, err = Open(dir, Options{Roster: h.Roster, Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	if err := st.AppendEvidence(proofs[0]); err != nil {
		f.Fatal(err)
	}
	withProofs = append(withProofs, read(dir, headFile))
	if err := st.InstallSnapshot(&Head{Horizon: map[types.ServerID]uint64{0: 1, 1: 2, 2: 1}, Base: base, State: sc}); err != nil {
		f.Fatal(err)
	}
	return wal, cut, read(dir, headFile), withProofs
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
// constant factor of n (a record's one-byte back-reference decodes to a
// 32-byte reference, held in the block and again in its rebuilt frame)
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
	p = append(p, 0, 0)
	framed := binary.BigEndian.AppendUint32(nil, uint32(len(p)))
	framed = binary.BigEndian.AppendUint32(framed, crc32.ChecksumIEEE(p))
	return append(framed, p...)
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
// segment each: those putPred writes, and those it never would; and two
// well-named records of blocks block.Decode refuses.
func handSegments(t testing.TB) []handSegment {
	g := scanWAL(walOf(rec([]byte{0})))
	if g.torn || g.bad != nil {
		t.Fatal("a hand-laid genesis record does not scan")
	}
	g0 := g.blocks[0].Ref()
	var full [][]byte // one record more than the window holds
	for seq := byte(0); seq <= walWindow; seq++ {
		full = append(full, rec([]byte{seq}))
	}
	// Whole records of the two blocks no correct builder builds, which
	// block.Decode refuses: MaxRequests+1 requests, a predecessor cited twice.
	h := dagtest.NewHarness(1)
	var pastBounds [][]byte
	for _, b := range []*block.Block{
		h.Seal(0, 0, nil, dagtest.Wide(block.MaxRequests+1)...),
		h.Seal(0, 1, []block.Ref{g0, g0}),
	} {
		var w wire.Writer
		putRecord(&w, b, &window{})
		pastBounds = append(pastBounds, w.Bytes())
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
		{"MaxRequests+1 requests", walOf(pastBounds[0]), false},
		{"a predecessor cited twice", walOf(pastBounds[1]), false},
	}
}

// TestScanWALNamesOneWay: a kind-4 record names each predecessor the one way
// the writer does — by its distance to the ref's latest record in the
// window, or by the literal ref when the window holds none — and the scanner
// refuses every other name, and a block past block.Decode's bounds, as a bad
// record, never as a tear.
func TestScanWALNamesOneWay(t *testing.T) {
	for _, hs := range handSegments(t) {
		if seg := scanWAL(hs.data); seg.torn || (seg.bad == nil) != hs.whole {
			t.Errorf("%s: scanned %d records, torn %v, bad %v; want the last one taken: %v", hs.name, len(seg.blocks), seg.torn, seg.bad, hs.whole)
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
	wal, _, _, _ := realSegments(f)
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
		stopped := seg.torn || seg.bad != nil
		if seg.goodLen < int64(headerSize) || seg.goodLen > int64(len(data)) || stopped != (seg.goodLen < int64(len(data))) ||
			seg.torn && seg.bad != nil {
			t.Fatalf("goodLen %d torn %v bad %v for a %d-byte segment", seg.goodLen, seg.torn, seg.bad, len(data))
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

// TestDecodeHeadProofsOncePerEquivocator: a head's proofs are in
// equivocator order, each equivocator once — what AppendEvidence writes —
// and the decoder refuses any other list: the bytes of one re-encode to
// themselves, so FuzzDecodeSnapshot's check cannot tell.
func TestDecodeHeadProofsOncePerEquivocator(t *testing.T) {
	h := dagtest.NewHarness(3)
	fork := func(builder int) *evidence.Proof {
		return evidence.New(h.Seal(builder, 0, nil, block.Request{Label: "a"}), h.Seal(builder, 0, nil, block.Request{Label: "b"}))
	}
	p1, p2 := fork(1), fork(2)
	for _, tc := range []struct {
		name   string
		proofs []*evidence.Proof
		ok     bool
	}{
		{"in order", []*evidence.Proof{p1, p2}, true},
		{"out of order", []*evidence.Proof{p2, p1}, false},
		{"twice", []*evidence.Proof{p1, p1}, false},
	} {
		_, err := decodeHead((&Head{Evidence: tc.proofs}).encode(), "test")
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted: %v", tc.name, err, tc.ok)
		}
	}
}

// FuzzDecodeSnapshot: the head decoder — what a cut, a snapshot install
// and an evidence write write, and Open reads first — never panics and
// never allocates out of proportion to its input — every count in the
// format is a length prefix an attacker or a bad sector picks — and a head
// it accepts is one the writer wrote: it re-encodes to the very bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	_, cut, installed, withProofs := realSegments(f)
	f.Add(cut)
	f.Add(installed)
	f.Add(cut[:len(cut)/2])
	f.Add((&Head{}).encode())
	for _, head := range withProofs {
		f.Add(head)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The trailer CRC would stop the fuzzer at the door: fix it up, so
		// mutations reach the table decoders behind it.
		if len(data) >= len(headMagic)+4 {
			data = bytes.Clone(data)
			body := data[len(headMagic) : len(data)-4]
			binary.BigEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
		}
		var h *Head
		var err error
		if got, limit := allocated(func() { h, err = decodeHead(data, "fuzz") }), allocBound(len(data)); got > limit {
			t.Fatalf("decodeHead allocated %d bytes for a %d-byte head (bound %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(h.encode(), data) {
			t.Fatalf("an accepted head of %d bytes re-encodes to other bytes", len(data))
		}
	})
}
