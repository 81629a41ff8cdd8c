package store_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// chain builds a valid single-builder chain of n blocks (genesis first)
// together with the roster that validates it.
func chain(t testing.TB, n int) (*crypto.Roster, []*block.Block) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]*block.Block, n)
	var prev *block.Block
	for k := 0; k < n; k++ {
		var preds []block.Ref
		if prev != nil {
			preds = []block.Ref{prev.Ref()}
		}
		b := block.New(0, uint64(k), preds, []block.Request{
			{Label: types.Label("inst"), Data: []byte{byte(k), 1, 2, 3}},
		})
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		blocks[k] = b
		prev = b
	}
	return roster, blocks
}

func openStore(t testing.TB, dir string, roster *crypto.Roster, opts store.Options) *store.Store {
	t.Helper()
	opts.Roster = roster
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func appendAll(t testing.TB, st *store.Store, blocks []*block.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
}

func sameRefs(a, b []*block.Block) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[block.Ref]struct{}, len(a))
	for _, x := range a {
		set[x.Ref()] = struct{}{}
	}
	for _, y := range b {
		if _, ok := set[y.Ref()]; !ok {
			return false
		}
	}
	return true
}

func TestOpenEmpty(t *testing.T) {
	roster, _ := chain(t, 1)
	st := openStore(t, t.TempDir(), roster, store.Options{})
	if got := len(st.Blocks()); got != 0 {
		t.Fatalf("fresh store recovered %d blocks", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(nil); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestAppendReopen(t *testing.T) {
	roster, blocks := chain(t, 10)
	dir := t.TempDir()

	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, roster, store.Options{})
	defer func() { _ = st2.Close() }()
	got := st2.Blocks()
	if len(got) != len(blocks) {
		t.Fatalf("recovered %d blocks, want %d", len(got), len(blocks))
	}
	for i, b := range got {
		if b.Ref() != blocks[i].Ref() {
			t.Fatalf("block %d: got %v want %v", i, b.Ref(), blocks[i].Ref())
		}
	}
	rep := st2.Report()
	if rep.TornBytes != 0 || rep.Duplicates != 0 || rep.HasSnapshot {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

// TestSinkSkipsTheReplay: the store keeps no index of its blocks. A reopened
// store is handed its own blocks back through the sink, in the order Open
// read them — the replay — and journals none of them again; what follows is
// new. A sink fed anything else (a DAG that was not built from this store)
// journals what is not, place for place, the block Open read: a duplicate
// record at worst, which the next Open drops, never a block lost.
func TestSinkSkipsTheReplay(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks[:5])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	feed := func(st *store.Store, blocks ...*block.Block) {
		t.Helper()
		sink := st.PersistSink(0)
		for _, b := range blocks {
			if err := sink(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	st = openStore(t, dir, roster, store.Options{})
	size1, err := st.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	feed(st, st.Blocks()...)
	if size2, err := st.DiskSize(); err != nil || size2 != size1 || st.Len() != 5 {
		t.Fatalf("the replay grew the store: %d -> %d bytes, Len %d (err %v)", size1, size2, st.Len(), err)
	}
	// A second sink: the first two places replay, the third and fourth do
	// not (6 is new, 2 is held: written twice now), the fifth does again,
	// the sixth is past what Open read.
	feed(st, blocks[0], blocks[1], blocks[6], blocks[2], blocks[4], blocks[5])
	if st.Len() != 8 {
		t.Fatalf("Len = %d after three appends to five blocks", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, roster, store.Options{ReadOnly: true})
	defer re.Close()
	if !sameRefs(re.Blocks(), blocks[:7]) || re.Report().Duplicates != 1 || re.Len() != 7 {
		t.Fatalf("reopened: %d blocks, %d duplicate records, Len %d; want 7, 1, 7", len(re.Blocks()), re.Report().Duplicates, re.Len())
	}
}

func TestSegmentRotation(t *testing.T) {
	roster, blocks := chain(t, 40)
	dir := t.TempDir()
	store.SetSegmentSize(t, 512)
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(entries))
	}

	st2 := openStore(t, dir, roster, store.Options{})
	defer func() { _ = st2.Close() }()
	if !sameRefs(st2.Blocks(), blocks) {
		t.Fatalf("rotation round trip lost blocks: got %d want %d", len(st2.Blocks()), len(blocks))
	}
	if st2.Report().Segments != len(entries) {
		t.Fatalf("report.Segments = %d, want %d", st2.Report().Segments, len(entries))
	}
}

// TestOpenTornTail is the power-cut property test: for every byte offset
// within the final record (and a few before it), truncating the WAL there
// and reopening must recover exactly the blocks whose records survived
// whole, truncate the torn bytes, and leave the store appendable.
func TestOpenTornTail(t *testing.T) {
	roster, blocks := chain(t, 5)

	// Reference store to learn the record boundaries.
	refDir := t.TempDir()
	sizes := make([]int64, 0, len(blocks)+1)
	st := openStore(t, refDir, roster, store.Options{})
	size, err := st.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	sizes = append(sizes, size) // header only
	for _, b := range blocks {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		if size, err = st.DiskSize(); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, size)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := os.ReadDir(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected a single segment, got %d", len(segs))
	}
	segName := segs[0].Name()
	data, err := os.ReadFile(filepath.Join(refDir, segName))
	if err != nil {
		t.Fatal(err)
	}

	// wholeRecords(cut) = number of fully persisted records at size cut.
	wholeRecords := func(cut int64) int {
		n := 0
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= cut {
				n = i
			}
		}
		return n
	}

	for cut := sizes[len(sizes)-2]; cut <= sizes[len(sizes)-1]; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := wholeRecords(cut)
		if got := len(st.Blocks()); got != want {
			t.Fatalf("cut %d: recovered %d blocks, want %d", cut, got, want)
		}
		wantTorn := cut - sizes[want]
		if rep := st.Report(); rep.TornBytes != wantTorn {
			t.Fatalf("cut %d: torn bytes %d, want %d", cut, rep.TornBytes, wantTorn)
		}
		// The store must resume cleanly: append the missing suffix and
		// reopen to check a complete recovery.
		for _, b := range blocks[want:] {
			if err := st.Append(b); err != nil {
				t.Fatalf("cut %d: append after tear: %v", cut, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if !sameRefs(st2.Blocks(), blocks) {
			t.Fatalf("cut %d: final recovery has %d blocks, want %d", cut, len(st2.Blocks()), len(blocks))
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The same property holds at the very start of the log: a power cut
	// during the first ever append can tear the segment header itself.
	// Every such prefix must open as an empty-but-usable store (or, at
	// the exact record boundary, recover the first block).
	for cut := int64(0); cut <= sizes[1]; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			t.Fatalf("head cut %d: %v", cut, err)
		}
		if got := len(st.Blocks()); got != wholeRecords(cut) {
			t.Fatalf("head cut %d: recovered %d blocks, want %d", cut, got, wholeRecords(cut))
		}
		appendAll(t, st, blocks)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			t.Fatalf("head cut %d: reopen: %v", cut, err)
		}
		if !sameRefs(st2.Blocks(), blocks) {
			t.Fatalf("head cut %d: final recovery has %d blocks, want %d", cut, len(st2.Blocks()), len(blocks))
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptEarlySegmentFails: a bad record that is not the tail of the
// final segment is corruption, not a torn write, and must fail Open.
func TestCorruptEarlySegmentFails(t *testing.T) {
	roster, blocks := chain(t, 40)
	dir := t.TempDir()
	store.SetSegmentSize(t, 512)
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	first := filepath.Join(dir, segs[0].Name())
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir, store.Options{Roster: roster}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Open on corrupt early segment: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenRefusesARecordThatDoesNotDecode: a whole, checksummed record
// that does not decode is corruption, not a torn tail, even in the final
// segment: Open fails with ErrCorrupt naming the segment, the record's
// offset and why, and a read-write Open leaves the segment as it was. The
// record is garbage, or a block past block.Decode's bounds (one an older
// build could have journaled): more than MaxRequests requests, or a
// predecessor cited twice. A zero-filled tail (length 0, CRC 0) is still a
// tear.
func TestOpenRefusesARecordThatDoesNotDecode(t *testing.T) {
	roster, blocks := chain(t, 2)
	_, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	// segmentWith journals blocks[0], then bad, then blocks[1]; it returns
	// the segment's path and where bad starts.
	segmentWith := func(bad *block.Block) (string, int64) {
		dir := t.TempDir()
		st := openStore(t, dir, roster, store.Options{})
		appendAll(t, st, blocks[:1])
		at, err := st.DiskSize()
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, st, []*block.Block{bad, blocks[1]})
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("%d segments (%v), want 1", len(segs), err)
		}
		return segs[0], at
	}
	sealed := func(preds []block.Ref, reqs []block.Request) *block.Block {
		b := block.New(0, 1, preds, reqs)
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		return b
	}
	g := blocks[0].Ref()

	// The garbage record: three bytes under a matching checksum, spliced in
	// where the middle record of a well-formed segment starts.
	path, at := segmentWith(sealed([]block.Ref{g}, nil))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{1, 2, 3}
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(garbage)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(garbage))
	spliced := append(append(append([]byte(nil), data[:at]...), append(rec, garbage...)...), data[at:]...)
	if err := os.WriteFile(path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	type corrupt struct {
		name, path string
		at         int64
	}
	cases := []corrupt{{"a garbage record", path, at}}
	for name, bad := range map[string]*block.Block{
		"MaxRequests+1 requests":    sealed([]block.Ref{g}, dagtest.Wide(block.MaxRequests+1)),
		"a predecessor cited twice": sealed([]block.Ref{g, g}, nil),
	} {
		path, at := segmentWith(bad)
		cases = append(cases, corrupt{name, path, at})
	}
	for _, c := range cases {
		before, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = store.Open(filepath.Dir(c.path), store.Options{Roster: roster})
		if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(c.path)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("offset %d", c.at)) {
			t.Fatalf("%s: Open = %v, want ErrCorrupt naming %s and offset %d", c.name, err, filepath.Base(c.path), c.at)
		}
		if after, err := os.ReadFile(c.path); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%s: the refused Open changed the segment (%d → %d bytes, %v)", c.name, len(before), len(after), err)
		}
	}

	// A zero-filled tail reads as records of length 0 and CRC 0: a tear.
	path, _ = segmentWith(sealed([]block.Ref{g}, nil))
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, make([]byte, 16)...), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, filepath.Dir(path), roster, store.Options{})
	defer st.Close()
	if got, torn := len(st.Blocks()), st.Report().TornBytes; got != 3 || torn != 16 {
		t.Fatalf("a zero-filled tail: %d blocks, %d torn bytes; want 3 and 16", got, torn)
	}
}

// TestRetiredSegmentKindsAreCorrupt: the WAL of raw frames (kind 1) and
// the snapshot segments (kinds 2 and 3, the .snap files) are gone from
// reader and writer alike. A segment of a retired kind fails Open as
// corruption, naming the kind, and so does a .snap file, whatever it holds.
func TestRetiredSegmentKindsAreCorrupt(t *testing.T) {
	roster, blocks := chain(t, 8)
	open := func(name string, data []byte) error {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := store.Open(dir, store.Options{Roster: roster})
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("Open on %s: err = %v, want ErrCorrupt", name, err)
		}
		return err
	}
	retired := func(kind byte, body []byte) {
		t.Helper()
		data := append([]byte("BDSTOR1\n"), kind)
		err := open("0000000000000001.wal", append(data, body...))
		if !strings.Contains(err.Error(), fmt.Sprintf("kind %d", kind)) {
			t.Fatalf("Open on a kind-%d segment: err = %v, want it named", kind, err)
		}
	}

	// The blocks as a kind-1 segment: each record's payload the frame.
	var frames, snap []byte
	for _, b := range blocks {
		frames = binary.BigEndian.AppendUint32(frames, uint32(b.EncodedSize()))
		frames = binary.BigEndian.AppendUint32(frames, crc32.ChecksumIEEE(b.Encode()))
		frames = append(frames, b.Encode()...)
	}
	retired(1, frames)
	// A snapshot of the blocks: no horizon, base or state, the block
	// count, the blocks, and a CRC32 trailer over all of it.
	snap = append(snap, 0, 0, 0, byte(len(blocks)))
	for _, b := range blocks {
		snap = append(snap, b.Encode()...)
	}
	snap = binary.BigEndian.AppendUint32(snap, crc32.ChecksumIEEE(snap))
	retired(2, snap)
	retired(3, snap)
	open("0000000000000001.snap", append([]byte("BDSTOR1\n\x03"), snap...))
}

// TestRetiredEvidenceSidecarIsCorrupt: the proofs live in the head, and a
// store still holding the evidence.log they had before fails Open, the file
// named as a retired format, rather than open without its bans.
func TestRetiredEvidenceSidecarIsCorrupt(t *testing.T) {
	roster, _ := chain(t, 1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "evidence.log"), []byte("BDEVID1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := store.Open(dir, store.Options{Roster: roster})
	if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "evidence.log") || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("Open over an evidence sidecar: err = %v, want ErrCorrupt naming the retired file", err)
	}
}

// TestRetiredHeadMagicIsCorrupt: a head of the format before proofs moved
// in (magic BDHEAD1) fails Open by name, whatever follows the magic.
func TestRetiredHeadMagicIsCorrupt(t *testing.T) {
	roster, _ := chain(t, 1)
	dir := t.TempDir()
	body := []byte{0, 0, 0} // no horizon, no base, no state
	head := binary.BigEndian.AppendUint32(append([]byte("BDHEAD1\n"), body...), crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, "head"), head, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := store.Open(dir, store.Options{Roster: roster})
	if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "BDHEAD1") {
		t.Fatalf("Open over a BDHEAD1 head: err = %v, want ErrCorrupt naming the retired format", err)
	}
}

// TestCheckpointPrunes: a cut drops the history below its horizon —
// disk is O(retained window), not O(history): every segment wholly below
// the horizon goes, and a reopen reads the retained blocks alone.
func TestCheckpointPrunes(t *testing.T) {
	roster, blocks := chain(t, 20)
	dir := t.TempDir()
	store.SetSegmentSize(t, 256)
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)

	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	before, err := st.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	st.SetStateCheckpoint(&store.StateCheckpoint{Commit: state.Commit{Slot: 1}})
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 15}); err != nil {
		t.Fatal(err)
	}
	after, err := st.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/2 {
		t.Fatalf("a cut retaining 5 of 20 blocks left %d of %d bytes", after, before)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, roster, store.Options{})
	defer func() { _ = st2.Close() }()
	if !sameRefs(st2.Blocks(), blocks[15:]) {
		t.Fatalf("pruned store recovered %d blocks, want 5", len(st2.Blocks()))
	}
}

// TestTornHeaderSegmentResume: a crash during segment creation leaves a
// final segment shorter than its header next to a clean full segment.
// Open must drop the stub, resume the clean segment at its own length
// (not length minus the stub's torn bytes), and stay consistent across
// another reopen.
func TestTornHeaderSegmentResume(t *testing.T) {
	roster, blocks := chain(t, 6)
	dir := t.TempDir()
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks[:4])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Stub of a next segment: 5 bytes, shorter than the 9-byte header.
	if err := os.WriteFile(filepath.Join(dir, "0000000000000002.wal"), []byte("BDSTO"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, roster, store.Options{})
	if got := len(st2.Blocks()); got != 4 {
		t.Fatalf("recovered %d blocks, want 4", got)
	}
	if rep := st2.Report(); rep.TornBytes != 5 {
		t.Fatalf("TornBytes = %d, want 5", rep.TornBytes)
	}
	appendAll(t, st2, blocks[4:])
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, dir, roster, store.Options{})
	defer func() { _ = st3.Close() }()
	if !sameRefs(st3.Blocks(), blocks) {
		t.Fatalf("final recovery has %d blocks, want %d", len(st3.Blocks()), len(blocks))
	}
	if rep := st3.Report(); rep.TornBytes != 0 {
		t.Fatalf("reopen after repair reports %d torn bytes", rep.TornBytes)
	}
}

// TestReopenResumesTheLiveSegment: a reopened store appends to its half-full
// final segment with the back-reference window its scan rebuilt, so the
// segment ends byte for byte as if the store had never closed, and a
// further reopen finds one segment and every block.
func TestReopenResumesTheLiveSegment(t *testing.T) {
	roster, blocks := chain(t, 40)
	oneGo, twoGoes := t.TempDir(), t.TempDir()
	st := openStore(t, oneGo, roster, store.Options{})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, part := range [][]*block.Block{blocks[:25], blocks[25:]} {
		st := openStore(t, twoGoes, roster, store.Options{})
		appendAll(t, st, part)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want, got := readDirBytes(t, oneGo), readDirBytes(t, twoGoes)
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("%d segments after a reopen, %d without; want one each", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("segment %s differs when the store was reopened halfway", name)
		}
	}
	re := openStore(t, twoGoes, roster, store.Options{})
	defer re.Close()
	if rep := re.Report(); rep.Segments != 1 || !sameRefs(re.Blocks(), blocks) {
		t.Fatalf("reopened: %d segments, %d blocks; want 1 and %d", rep.Segments, len(re.Blocks()), len(blocks))
	}
}

// TestOrphanedSnapshotTmpSwept: a cut or an install that crashed before
// its head's rename leaves a .tmp orphan; a read-write Open removes it, a
// read-only Open leaves it alone.
func TestOrphanedSnapshotTmpSwept(t *testing.T) {
	roster, blocks := chain(t, 3)
	dir := t.TempDir()
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "head.tmp")
	if err := os.WriteFile(orphan, []byte("half-written head"), 0o644); err != nil {
		t.Fatal(err)
	}

	ro := openStore(t, dir, roster, store.Options{ReadOnly: true})
	// Read-only opens still report the orphan — dagstore verify must
	// flag a store a read-write open would repair — without touching it.
	if ro.Report().StaleSegments != 1 {
		t.Fatalf("read-only StaleSegments = %d, want 1", ro.Report().StaleSegments)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatal("read-only open touched the orphaned temp file")
	}

	rw := openStore(t, dir, roster, store.Options{})
	defer func() { _ = rw.Close() }()
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("read-write open did not sweep the orphaned temp file")
	}
	if rw.Report().StaleSegments != 1 {
		t.Fatalf("StaleSegments = %d, want 1", rw.Report().StaleSegments)
	}
	if !sameRefs(rw.Blocks(), blocks) {
		t.Fatalf("recovered %d blocks, want %d", len(rw.Blocks()), len(blocks))
	}
}

// TestSnapshotEquivocation: a cut keeps both forks of an equivocation
// above its horizon (two blocks, same builder and seq), and a reopen reads
// both back.
func TestSnapshotEquivocation(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	g := block.New(0, 0, nil, nil)
	if err := g.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}
	b1 := block.New(0, 1, []block.Ref{g.Ref()}, []block.Request{{Label: "a", Data: []byte("x")}})
	if err := b1.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}
	b2 := block.New(0, 1, []block.Ref{g.Ref()}, []block.Request{{Label: "a", Data: []byte("y")}})
	if err := b2.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}

	d := dag.New(roster)
	dir := t.TempDir()
	st := openStore(t, dir, roster, store.Options{})
	for _, b := range []*block.Block{g, b1, b2} {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStateCheckpoint(&store.StateCheckpoint{Commit: state.Commit{Slot: 1}})
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, roster, store.Options{})
	defer func() { _ = st2.Close() }()
	if !sameRefs(st2.Blocks(), []*block.Block{b1, b2}) {
		t.Fatalf("recovered %d blocks, want both forks", len(st2.Blocks()))
	}
}

func TestSyncPolicies(t *testing.T) {
	roster, blocks := chain(t, 6)
	for _, policy := range []store.SyncPolicy{store.SyncAlways, store.SyncInterval, store.SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			now := time.Duration(0)
			dir := t.TempDir()
			st := openStore(t, dir, roster, store.Options{
				Sync:  policy,
				Clock: func() time.Duration { return now },
			})
			for _, b := range blocks {
				if err := st.Append(b); err != nil {
					t.Fatal(err)
				}
				now += 70 * time.Millisecond
				if err := st.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := openStore(t, dir, roster, store.Options{})
			if !sameRefs(st2.Blocks(), blocks) {
				t.Fatalf("recovered %d blocks, want %d", len(st2.Blocks()), len(blocks))
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, policy := range []store.SyncPolicy{store.SyncAlways, store.SyncInterval, store.SyncNever} {
		got, err := store.ParseSyncPolicy(policy.String())
		if err != nil || got != policy {
			t.Fatalf("round trip %v: got %v err %v", policy, got, err)
		}
	}
	if _, err := store.ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}
