package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// SyncPolicy selects when Append fsyncs the live WAL segment. See the
// package documentation for the trade-offs.
type SyncPolicy int

const (
	// SyncInterval fsyncs at most once per syncEvery (default).
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every appended block.
	SyncAlways
	// SyncNever leaves flushing entirely to the operating system.
	SyncNever
)

// String renders the policy for logs and CLI output.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy inverts SyncPolicy.String, for CLI flags.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// segmentSize is the rotation threshold for WAL segments in bytes: 8 MiB.
// Records are never split: a segment may exceed it by up to one record. No
// deployment has needed another value; a variable only so that the
// package's tests can rotate after a few blocks (export_test.go).
var segmentSize int64 = 8 << 20

// syncEvery bounds the fsync lag under SyncInterval. It only decides how
// many received blocks a power cut can take with it — own blocks are synced
// before they leave (PersistSink), and a lost received block is fetched
// again — so no deployment has needed another value: at 200 ms a burst of
// blocks shares an fsync, and the tail at risk is a block period or two.
const syncEvery = 200 * time.Millisecond

// Options configures Open.
type Options struct {
	// Roster verifies the head's proofs on load: one that no longer
	// verifies must not resurrect a ban. Required. Open checks them, not
	// core.Server.SetJournal, because the first reader of Evidence comes
	// before any server exists: deploy.ListenOn bans the convicted at the
	// socket from it. Blocks are not checked against it — Open reads, the
	// live DAG validates (see Open).
	Roster *crypto.Roster
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// Clock supplies the current time for SyncInterval bookkeeping. The
	// node runtime injects its clock; nil defaults to wall time.
	Clock func() time.Duration
	// ReadOnly opens the store for offline inspection: recovery reports
	// torn tails and stale segments without repairing them, and Append,
	// PruneTo and InstallSnapshot are refused. The dagstore CLI uses this for
	// inspect/verify so examining a store never changes it.
	ReadOnly bool
}

// OpenReport describes what Open found and repaired.
type OpenReport struct {
	// Segments is the number of WAL segment files read.
	Segments int
	// HasSnapshot reports a head that stands in for history: the store
	// was cut (PruneTo) or installed from a snapshot (InstallSnapshot). A
	// head holding only proofs (AppendEvidence) is none.
	HasSnapshot bool
	// Blocks is the number of distinct blocks read at or above the
	// horizon.
	Blocks int
	// Duplicates counts WAL records dropped because an identical block
	// was already recovered (journaled again by a replay that diverged
	// from what Open read).
	Duplicates int
	// TornBytes is the size of the torn tail truncated from the final
	// WAL segment, 0 if the log ended cleanly.
	TornBytes int64
	// StaleSegments counts files a crashed cut left behind: non-final WAL
	// segments holding no record at or above the horizon, and an orphaned
	// head temp file. Read-write opens delete them; ReadOnly opens only
	// report them.
	StaleSegments int
}

// Store is a durable block store rooted at one directory. Like the rest
// of the deterministic stack it is not safe for concurrent use; the node
// runtime (or the simulator's event loop) serializes access. Head and
// Runtime are the exceptions: any goroutine may call them.
type Store struct {
	dir  string
	opts Options

	// opened is what Open read, in file order — report.Blocks of them —
	// until a sink has been handed all of it back (Blocks): the sink tells a
	// block it replays from a new one by them. blocks counts the blocks on
	// disk: the journaled frontier. There is no index of them: the server's
	// DAG numbers each block once, and the sink counts along.
	opened []*block.Block
	blocks int
	report OpenReport

	// The location column (Block): where the record of each row — the DAG's
	// numbering, as the sink counts it — lies, one word a row; segs is the
	// segments it points into (nil for one a cut deleted), the live WAL
	// segment's at liveSlot. stray
	// holds, by row, the blocks a failed write left on no disk, and rd is
	// the file Block read last, kept open for the next.
	locs     []loc
	segs     []*segMeta
	liveSlot int
	stray    map[int]*block.Block
	rd       *os.File
	rdIndex  uint64

	// head is the pruned-history state and the proofs, journaled in the head
	// file, and published whole: its horizon is the sticky per-builder prune
	// floor — a cut only raises it, and Open reads no record below it, so
	// nothing brings pruned history back. durable is the head as the file
	// holds it: head less a checkpoint SetStateCheckpoint set since.
	head    atomic.Pointer[Head]
	durable *Head

	cur     *os.File
	curSize int64
	// win names the live segment's latest records, the ones a record
	// written next can cite by distance: only records on disk, since a
	// failed write ends the segment (flushPending).
	win     window
	nextIdx uint64

	// Group-commit state (BeginBatch / FlushBatch). Append holds the block
	// in batch, counted into blocks; FlushBatch frames the records into rec
	// and writes them with one syscall per segment run, then makes one
	// fsync-policy decision for the burst — a burst of one outside a
	// window. A record's bytes depend on the segment it lands in (win), so
	// they are fixed only there. batch and rec are reused across flushes, so
	// steady-state journaling allocates nothing.
	batching bool
	batch    []pending
	rec      wire.Writer

	dirty bool
	// dirDirty records that the live segment's directory entry is not
	// yet durable (the file was created since the last directory fsync):
	// fsyncing a newly created file does not persist its name, so Sync
	// must also fsync the directory or a power cut can drop the whole
	// segment.
	dirDirty bool
	lastSync time.Duration
	closed   bool
	// failed latches a write error the store could not repair (the
	// segment may end in a partial record that later appends must not
	// bury); every subsequent Append refuses with this error.
	failed error

	// rt is, beside head, the one field any goroutine may read (Runtime).
	rtMu sync.Mutex
	rt   any
}

// Open creates or recovers the store in dir. It reads the head, if there
// is one, then every WAL segment in index order, skipping the records
// below the horizon; it truncates a torn final record instead of failing,
// finishes a cut that crashed (deleting the segments it left), drops
// duplicate records, and leaves the store ready to Append.
// That is framing and checksums only: Open builds no DAG and checks no
// signature. The blocks it read are available from Blocks in file order,
// and Definition 3.3 is checked once, where every other block's is — in
// the live DAG, by core.Server.Restore.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Roster == nil {
		return nil, errors.New("store: options need a Roster")
	}
	if opts.Clock == nil {
		start := time.Now()
		opts.Clock = func() time.Duration { return time.Since(start) }
	}
	if opts.ReadOnly {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, nextIdx: 1}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover reads the directory, repairs it, and rebuilds in-memory state.
func (s *Store) recover() error {
	// A cut that crashed between writing its temp head and the rename
	// leaves an orphan no reader will ever see; sweep it. ReadOnly opens
	// still count it (dagstore verify must flag a store a read-write open
	// would repair) but leave the file in place.
	tmps, err := filepath.Glob(filepath.Join(s.dir, "*.tmp"))
	if err != nil {
		return fmt.Errorf("store: list temp files: %w", err)
	}
	for _, tmp := range tmps {
		if err := s.sweep(tmp); err != nil {
			return err
		}
	}
	h, err := readHead(s.dir)
	if err != nil {
		return err
	}
	if h == nil {
		h = &Head{}
	}
	s.report.HasSnapshot = h.cut()
	// A proof that no longer verifies (one written under another roster,
	// say) must not resurrect a ban: drop it.
	h.Evidence = slices.DeleteFunc(h.Evidence, func(p *evidence.Proof) bool { return p.Verify(s.opts.Roster) != nil })
	s.head.Store(h)
	s.durable = h
	segs, err := listSegments(s.dir)
	if err != nil {
		return err
	}

	// A power cut during segment creation can tear even the header; for
	// the final segment that is a torn tail (drop the file), anywhere else
	// it is corruption, surfaced by readSegment below.
	if n := len(segs); n > 0 && segs[n-1].size < int64(headerSize) {
		last := segs[n-1]
		if !s.opts.ReadOnly {
			if err := os.Remove(last.path); err != nil {
				return fmt.Errorf("store: remove torn segment: %w", err)
			}
		}
		s.report.TornBytes += last.size
		s.nextIdx = max(s.nextIdx, last.index+1)
		segs = segs[:n-1]
	}

	seen := make(map[block.Ref]struct{}) // of this read only: duplicate records are dropped here
	for i, sf := range segs {
		seg, err := readSegment(sf)
		if err != nil {
			return err
		}
		s.report.Segments++
		s.nextIdx = max(s.nextIdx, sf.index+1)
		final := i == len(segs)-1
		if seg.torn && !final {
			return fmt.Errorf("%w: %s: a record not whole before the final segment", ErrCorrupt, sf.path)
		}
		m := &segMeta{index: sf.index}
		for _, b := range seg.blocks {
			m.note(b)
		}
		// A non-final segment wholly below the horizon is one a cut that
		// crashed did not get to delete.
		if s.report.HasSnapshot && !final && !m.above(h.Horizon) {
			if err := s.sweep(sf.path); err != nil {
				return err
			}
			continue
		}
		// Every block read at or above the horizon is a row, in file order,
		// at its first record; a record below the horizon is not a row.
		for j, b := range seg.blocks {
			if b.Seq < h.Horizon[b.Builder] {
				continue
			}
			if _, dup := seen[b.Ref()]; dup {
				s.report.Duplicates++
				continue
			}
			seen[b.Ref()] = struct{}{}
			s.opened = append(s.opened, b)
			s.locs = append(s.locs, locOf(len(s.segs), seg.offs[j]))
		}
		s.segs = append(s.segs, m)
		if seg.torn {
			s.report.TornBytes += sf.size - seg.goodLen
			if !s.opts.ReadOnly {
				if err := os.Truncate(sf.path, seg.goodLen); err != nil {
					return fmt.Errorf("store: truncate torn tail: %w", err)
				}
			}
		}
		// Resume the final WAL segment if it has room, with its window as the
		// scan left it; else start fresh.
		if final && !s.opts.ReadOnly && seg.goodLen < segmentSize {
			f, err := os.OpenFile(sf.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("store: reopen segment: %w", err)
			}
			s.cur, s.curSize = f, seg.goodLen
			s.liveSlot = len(s.segs) - 1
			for _, b := range seg.blocks[max(0, len(seg.blocks)-walWindow):] {
				s.win.push(b.Ref())
			}
		}
	}
	s.blocks = len(s.opened)
	s.report.Blocks = s.blocks
	s.lastSync = s.opts.Clock()
	return nil
}

// sweep counts a file a crashed cut left behind and, unless the store is
// read-only, deletes it.
func (s *Store) sweep(path string) error {
	s.report.StaleSegments++
	if s.opts.ReadOnly {
		return nil
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("store: remove stale file: %w", err)
	}
	return nil
}

// SetRuntime registers the runtime that journals to the store (nil: none)
// and Runtime returns it, from any goroutine: the store never calls it, a
// sync server reaches its node through it (syncsvc.Server.Store).
func (s *Store) SetRuntime(rt any) { s.rtMu.Lock(); s.rt = rt; s.rtMu.Unlock() }
func (s *Store) Runtime() any      { s.rtMu.Lock(); defer s.rtMu.Unlock(); return s.rt }

// Report returns what Open found and repaired.
func (s *Store) Report() OpenReport { return s.report }

// Blocks returns the blocks Open read at or above the horizon,
// unvalidated, in file order — a topological order over the base when a
// correct server wrote the files (WAL order is insertion order) — for
// core.Server.Restore. The slice is shared; treat it as read-only. A
// writable store lets go of it once a sink has been handed all of it back
// (Restore's replay), so the blocks are the DAG's to keep or release, and
// returns nil from then on; a read-only store keeps it.
func (s *Store) Blocks() []*block.Block { return s.opened }

// Head returns the store's head as Open read it or SetStateCheckpoint,
// PruneTo, InstallSnapshot or AppendEvidence last set it — never nil; a
// store never cut holds an empty one — from any goroutine. A server restoring from a
// pruned store must SeedBase its Base into its DAG before replaying
// Blocks, and its State is then the only way to rebuild the application
// state: the blocks that produced it are gone.
func (s *Store) Head() *Head { return s.head.Load() }

// SetStateCheckpoint makes sc the head's state commitment. It becomes
// durable with the head the next PruneTo writes rather than immediately —
// an AppendEvidence in between writes the checkpoint already on disk: until
// then the same state is reproducible by replaying the journal, so nothing
// is lost in a crash.
func (s *Store) SetStateCheckpoint(sc *StateCheckpoint) {
	h := *s.head.Load()
	h.State = sc
	s.head.Store(&h)
}

// Len returns the number of blocks the store holds — recovered plus
// appended, or what the last cut retained: the journaled frontier.
func (s *Store) Len() int { return s.blocks }

// DiskSize returns the total size in bytes of the WAL segments and the
// head, proofs included. Only a cut (PruneTo) shrinks it, by the segments
// it deletes: the store holds every block above its horizon.
func (s *Store) DiskSize() (int64, error) {
	segs, err := listSegments(s.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, sf := range segs {
		total += sf.size
	}
	if info, err := os.Stat(filepath.Join(s.dir, headFile)); err == nil {
		total += info.Size()
	}
	return total, nil
}

// Append journals one block, whatever the store holds: telling a journaled
// block from a new one is the caller's (PersistSink does; a record written
// twice costs its bytes until a cut deletes its segment — Open skips it). Durability
// follows the configured fsync policy; use Sync to force the strongest point.
//
// Between BeginBatch and FlushBatch, Append only adds the block to the
// group-commit batch; see FlushBatch for when its record hits the disk.
func (s *Store) Append(b *block.Block) error { return s.append(b, len(s.locs)) }

// pending is a block in the group-commit batch: its row, and where its
// record starts in the frames being written.
type pending struct {
	b        *block.Block
	row, off int
}

// append journals b as row: Append's next row, or the sink's.
func (s *Store) append(b *block.Block, row int) error {
	if s.closed {
		return errors.New("store: append after Close")
	}
	if s.opts.ReadOnly {
		return errors.New("store: append to read-only store")
	}
	if s.failed != nil {
		return fmt.Errorf("store: unusable after write failure: %w", s.failed)
	}
	// One write path: batch the block and count it (a failed flush takes it
	// back out). Inside a window the write waits for FlushBatch; outside
	// one, this block is a batch of one.
	for len(s.locs) <= row {
		s.locs = append(s.locs, noLoc)
	}
	s.locs[row] = noLoc // a record of another block the sink found here is not the row's
	s.batch = append(s.batch, pending{b: b, row: row})
	s.blocks++
	if s.batching {
		return nil
	}
	return s.FlushBatch()
}

// syncByPolicy is the fsync decision after a write: always, or once the
// interval has passed since the last one, or never.
func (s *Store) syncByPolicy() error {
	if s.opts.Sync == SyncAlways ||
		s.opts.Sync == SyncInterval && s.opts.Clock()-s.lastSync >= syncEvery {
		return s.Sync()
	}
	return nil
}

// BeginBatch opens a group-commit window: until FlushBatch, Append
// buffers records in memory instead of writing them. Use it around a
// burst of appends so the whole burst costs one write syscall and one
// fsync decision instead of one pair per block. Nested BeginBatch calls are no-ops — the window is a
// flag, not a stack. Batches do not change what ends up on disk, only
// how many syscalls produce it: the byte stream is identical to the same
// appends issued individually (property-tested in batch_test.go).
//
// Buffered records are invisible to crash recovery until flushed, so a
// batch must be short-lived: the node runtime brackets exactly one
// ingest burst. Sync and Close drain the buffer first, so a batch left
// open cannot lose records on a clean shutdown.
func (s *Store) BeginBatch() {
	s.batching = true
}

// FlushBatch closes the group-commit window and writes every batched
// block's record: one write syscall per contiguous run that fits the live
// segment (rotating between runs), then a single fsync-policy decision
// for the whole burst. A flush with nothing batched is a no-op. On a
// write error the frontier is rolled back by the unwritten records and
// the live segment is cut back and ended (flushPending); the error
// reports the first block that was lost.
func (s *Store) FlushBatch() error {
	s.batching = false
	if len(s.batch) == 0 {
		return nil
	}
	if err := s.flushPending(); err != nil {
		return err
	}
	return s.syncByPolicy()
}

// flushPending writes the batched blocks' records and empties the batch,
// leaving the batching flag alone (Sync drains mid-batch without closing
// the window). The fsync decision is the caller's.
func (s *Store) flushPending() error {
	batch := s.batch
	s.batch = batch[:0]
	defer clear(batch) // the batch keeps no flushed block alive
	if s.closed || s.opts.ReadOnly {
		// Append refused these before batching anything; nothing can be
		// pending. Guard anyway so a misuse cannot write to a dead store.
		return nil
	}
	for i := 0; i < len(batch); {
		if s.cur == nil {
			if err := s.newSegment(); err != nil {
				s.lose(batch[i:])
				return err
			}
		}
		// Frame the longest run from i that the live segment accepts under
		// the rotation rule: rotate before a record that would overflow,
		// unless the segment holds nothing but its header (records are
		// never split; a segment may exceed the threshold by one record).
		// A record is framed against the live segment's window and kept
		// only if it fits; otherwise the next segment frames it afresh.
		run := i
		s.rec.Truncate(0)
		for ; i < len(batch); i++ {
			mark := s.rec.Len()
			used := s.curSize + int64(mark)
			putRecord(&s.rec, batch[i].b, &s.win)
			if used+int64(s.rec.Len()-mark) > segmentSize && used > int64(headerSize) {
				s.rec.Truncate(mark)
				break
			}
			s.win.push(batch[i].b.Ref())
			batch[i].off = mark
		}
		if i == run {
			if err := s.rotate(); err != nil {
				s.lose(batch[i:])
				return err
			}
			continue
		}
		if _, err := s.cur.Write(s.rec.Bytes()); err != nil {
			s.lose(batch[run:])
			s.endFailedSegment(err)
			return fmt.Errorf("store: append block %v: %w", batch[run].b.Ref(), err)
		}
		for _, p := range batch[run:i] {
			s.locs[p.row] = locOf(s.liveSlot, s.curSize+int64(p.off))
			s.segs[s.liveSlot].note(p.b)
		}
		s.curSize += int64(s.rec.Len())
		s.dirty = true
	}
	return nil
}

// lose takes batched blocks a write could not put on disk back out of the
// count, and keeps them for Block: their rows may have left the DAG's RAM
// already, on the strength of the append.
func (s *Store) lose(lost []pending) {
	s.blocks -= len(lost)
	if s.stray == nil {
		s.stray = make(map[int]*block.Block)
	}
	for _, p := range lost {
		s.stray[p.row] = p.b
	}
}

// endFailedSegment ends the live segment after a failed write. The segment
// may end in a partial record: it is truncated back to the last good
// offset, so no later reader meets torn bytes before the next segment's
// records (recovery would stop there and silently drop everything after,
// or fail the whole segment), and closed, so the next append opens a fresh
// segment whose window names only records on disk. Like a rotation it
// fsyncs first unless the policy is SyncNever, best effort: a power cut
// must not keep the next segment and tear this one's unsynced tail, which
// recovery would find mid-journal. If the repair fails, the store latches:
// refusing further appends keeps every record recovery does return
// trustworthy.
func (s *Store) endFailedSegment(err error) {
	if terr := s.cur.Truncate(s.curSize); terr != nil {
		s.failed = err
	} else if s.dirty && s.opts.Sync != SyncNever {
		_ = s.cur.Sync() // the write already failed; that error is the one reported
	}
	_ = s.cur.Close()
	s.cur, s.curSize, s.dirty = nil, 0, false
}

// PersistSink returns the persistence hook (core.Journal) for the server
// owning this store: it journals every inserted block and, for blocks
// built by self, forces the WAL durable before returning — whatever the
// fsync policy. The hook runs before gossip broadcasts an
// own block, so by the time any peer can observe one of our sequence
// numbers the block is on disk: a power cut can never make a restarted
// server re-sign a different block at an already-published sequence
// number (self-equivocation, which DAGs flag and correct servers must
// never commit). Received blocks stay on the configured policy — losing
// an unsynced tail of them only costs refetching from peers.
//
// The sink numbers the blocks as the server's DAG does: it is handed each
// once, in the DAG's order from its first (core.Journal), and that number is
// the block's row in the location column (Block). A row below the frontier
// Open found is a block Open read, coming back through the replay of Blocks,
// and is skipped — if it is that block: a DAG built from anything else
// journals it again, a duplicate record and nothing lost. Every later row is
// new, whatever a failed write or a cut did to Len.
//
// Use this, not a bare Append, whenever the store backs a live server;
// node.Config.Store and package cluster wire it automatically.
func (s *Store) PersistSink(self types.ServerID) func(*block.Block) error {
	row := -1
	return func(b *block.Block) error {
		row++
		if row < s.report.Blocks && s.holds(row, b) {
			return nil
		}
		if err := s.append(b, row); err != nil {
			return err
		}
		if b.Builder == self {
			return s.Sync()
		}
		return nil
	}
}

// holds reports whether row, one Open read, is b: compared with what Open
// read until the replay has been handed all of it — and lets go of it then —
// and with the row's record, read back over b's predecessors, after.
func (s *Store) holds(row int, b *block.Block) bool {
	if s.opened != nil {
		same := s.opened[row].Ref() == b.Ref()
		if row == len(s.opened)-1 {
			s.opened = nil // replayed: the DAG's now
		}
		return same
	}
	got, err := s.Block(row, b.Preds)
	return err == nil && got.Ref() == b.Ref()
}

// Sync fsyncs the live WAL segment if it has unsynced appends, and the
// store directory if the segment file itself was created since the last
// sync (a new file's directory entry is not made durable by fsyncing the
// file). Records buffered by an open group-commit window are written
// first — Sync means "everything appended so far is durable", batched or
// not — without closing the window.
func (s *Store) Sync() error {
	if len(s.batch) > 0 {
		if err := s.flushPending(); err != nil {
			return err
		}
	}
	if !s.dirty || s.cur == nil {
		return nil
	}
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	if s.dirDirty {
		if err := syncDir(s.dir); err != nil {
			return err
		}
		s.dirDirty = false
	}
	s.dirty = false
	s.lastSync = s.opts.Clock()
	return nil
}

// Tick drives interval fsync from the owner's timer loop, so blocks
// appended during a lull still become durable within syncEvery. Time
// comes from Options.Clock, keeping Append and Tick on one timeline.
func (s *Store) Tick() error {
	if s.opts.Sync != SyncInterval || !s.dirty {
		return nil
	}
	return s.syncByPolicy()
}

// newSegment starts WAL segment nextIdx, with an empty window: a segment's
// records name predecessors only among its own. O_APPEND keeps every write
// at EOF, so a truncation of the live segment composes with later appends
// without gaps.
func (s *Store) newSegment() error {
	path := filepath.Join(s.dir, segName(s.nextIdx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write(segHeader(kindWAL)); err != nil {
		// Remove the stillborn segment so a retried append can
		// recreate it (O_EXCL would otherwise refuse forever).
		_ = f.Close()
		_ = os.Remove(path)
		return fmt.Errorf("store: write segment header: %w", err)
	}
	s.cur = f
	s.curSize = int64(headerSize)
	s.liveSlot = len(s.segs)
	s.segs = append(s.segs, &segMeta{index: s.nextIdx})
	s.win.reset()
	s.nextIdx++
	s.dirDirty = true
	return nil
}

// rotate seals the live segment (fsynced unless the policy is SyncNever)
// and lets the next Append start a fresh one.
func (s *Store) rotate() error {
	if s.cur == nil {
		return nil
	}
	if s.opts.Sync != SyncNever {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	s.cur, s.dirty, s.curSize = nil, false, 0
	return nil
}

// cut is d's rows split at a prune horizon: the blocks kept (seq >=
// horizon[builder]), counted, and the base table — every pruned or
// stand-in row a kept block cites, and per builder the row at horizon-1,
// so each chain's first live block above the horizon finds its parent even
// before anything cites it. Blocks are numbered as d inserted them;
// stand is where they start among d's rows.
type cut struct {
	d        *dag.DAG
	horizon  map[types.ServerID]uint64
	stand    int
	retained int
	base     []dag.Base
}

// kept reports whether d's i-th inserted block lies at or above the horizon.
func (c *cut) kept(i int) bool {
	builder, seq := c.d.Pos(c.stand + i)
	return seq >= c.horizon[builder]
}

// pruneSet cuts d at the horizon from its rows alone: no block is read.
func pruneSet(d *dag.DAG, horizon map[types.ServerID]uint64) (*cut, error) {
	c := &cut{d: d, horizon: horizon, stand: len(d.Base())}
	entry := func(v int) dag.Base {
		builder, seq := d.Pos(v)
		return dag.Base{Builder: builder, Seq: seq, Ref: d.RefAt(v)}
	}
	baseSet := make(map[block.Ref]dag.Base)
	frontier := make(map[types.ServerID]bool, len(horizon))
	for i := 0; i < d.Len(); i++ {
		e := entry(c.stand + i)
		h := horizon[e.Builder]
		if e.Seq >= h {
			c.retained++
			continue
		}
		if h > 0 && e.Seq == h-1 {
			baseSet[e.Ref] = e
			frontier[e.Builder] = true
		}
	}
	seeded := d.BaseHorizon()
	for _, e := range d.Base() {
		h := horizon[e.Builder]
		if e.Seq >= h {
			// A previously seeded stand-in above the current horizon: keep
			// it, retained blocks may hang off it.
			baseSet[e.Ref] = e
			if e.Seq == seeded[e.Builder]-1 {
				frontier[e.Builder] = true
			}
			continue
		}
		if h > 0 && e.Seq == h-1 {
			baseSet[e.Ref] = e
			frontier[e.Builder] = true
		}
	}
	for id, h := range horizon {
		if h > 0 && !frontier[id] {
			return nil, fmt.Errorf("store: prune horizon %d for builder %v but no block at seq %d", h, id, h-1)
		}
	}
	for i := 0; i < d.Len(); i++ {
		if !c.kept(i) {
			continue
		}
		for _, p := range d.PredsAt(c.stand + i) {
			if int(p) >= c.stand && c.kept(int(p)-c.stand) {
				continue // retained itself
			}
			e := entry(int(p)) // a pruned block, or a stand-in
			baseSet[e.Ref] = e
		}
	}
	// By (builder, seq), the ref a deterministic tie-break for equivocating
	// duplicates at one slot.
	c.base = slices.SortedFunc(maps.Values(baseSet), func(a, b dag.Base) int {
		return cmp.Or(cmp.Compare(a.Builder, b.Builder), cmp.Compare(a.Seq, b.Seq), bytes.Compare(a.Ref[:], b.Ref[:]))
	})
	return c, nil
}

// PruneTo cuts the store at a horizon: it raises the sticky prune horizon
// (per-builder maximum with the current one), computes the base table from
// d's rows (pruneSet; no block is read), publishes the head — horizon,
// base and state checkpoint, the store's one rewrite — marks the rows
// below the horizon pruned, and deletes every WAL segment but the live one
// that holds no record at or above the horizon. A segment straddling the
// horizon stays whole, and a cut's I/O is the head's, whatever the window
// holds (the package documentation, "The head and the cut", has the disk
// bound). d is the DAG whose rows the store journals (the sink's
// numbering). PruneTo refuses to run without a state checkpoint
// (SetStateCheckpoint): a pruned store could not otherwise rebuild its
// application state, since the blocks that produced it are gone.
//
// The head is durable before any segment is deleted, so a crash leaves
// either the old head (nothing changed) or the new one with segments the
// cut did not get to delete — Open skips their records below the horizon
// and deletes them. Callers must only prune below quiescent points of the
// protocol (committed state the roster has sealed); the store cannot
// check that, and the node prunes only at its interpreter's cut
// (interpret.Interpreter.Cut), which is one.
func (s *Store) PruneTo(d *dag.DAG, horizon map[types.ServerID]uint64) error {
	cur := s.head.Load()
	switch {
	case s.closed:
		return errors.New("store: prune after Close")
	case s.opts.ReadOnly:
		return errors.New("store: prune on read-only store")
	case cur.State == nil:
		return errors.New("store: PruneTo without a state checkpoint")
	}
	merged := make(map[types.ServerID]uint64, len(cur.Horizon)+len(horizon))
	maps.Copy(merged, cur.Horizon)
	for id, h := range horizon {
		merged[id] = max(merged[id], h)
	}
	c, err := pruneSet(d, merged)
	if err != nil {
		return err
	}
	// The open batch's rows go to disk first, so the rows marked below are
	// the ones on it.
	if err := s.flushPending(); err != nil {
		return err
	}
	next := &Head{Horizon: merged, Base: c.base, State: cur.State, Evidence: cur.Evidence}
	if err := s.putHead(next, next); err != nil {
		return err
	}
	for i := range min(d.Len(), len(s.locs)) {
		if !c.kept(i) {
			s.locs[i] = pruned
		}
	}
	s.blocks = c.retained
	s.closeReader() // its segment may be about to go
	for k, m := range s.segs {
		if m == nil || k == s.liveSlot && s.cur != nil || m.above(merged) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, segName(m.index))); err != nil {
			return fmt.Errorf("store: remove pruned segment: %w", err)
		}
		s.segs[k] = nil // every row it held is pruned
	}
	return nil
}

// InstallSnapshot makes an empty open store a pruned one holding no
// blocks: h's horizon, base table and certified state checkpoint become its
// head, beside the proofs the store already holds (h's own are ignored) —
// the install step of snapshot catch-up, after which the delta journals
// into this same store's WAL. A store that already holds a block or a base
// is refused: its history is its own. The head is written the way a cut
// writes it, so a crash mid-install leaves either an empty store or a
// complete one.
func (s *Store) InstallSnapshot(h *Head) error {
	switch {
	case s.closed:
		return errors.New("store: install snapshot after Close")
	case s.opts.ReadOnly:
		return errors.New("store: install snapshot on read-only store")
	case h.State == nil:
		return errors.New("store: InstallSnapshot needs a state checkpoint")
	case s.blocks > 0 || len(s.head.Load().Base) > 0:
		return fmt.Errorf("store: InstallSnapshot into non-empty store %s", s.dir)
	}
	next := &Head{Horizon: h.Horizon, Base: h.Base, State: h.State, Evidence: s.head.Load().Evidence}
	return s.putHead(next, next)
}

// putHead writes disk as the head file and then publishes published: the
// same head, but for an evidence write, which leaves a checkpoint
// SetStateCheckpoint set since the last cut published and unwritten.
func (s *Store) putHead(disk, published *Head) error {
	if err := writeHead(s.dir, disk); err != nil {
		return err
	}
	s.durable = disk
	s.head.Store(published)
	return nil
}

// Close seals the live segment, fsyncing unless the policy is SyncNever.
// Records buffered by an open group-commit window are written first, so
// a clean shutdown never loses a batched append. The store is unusable
// afterwards.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	if err := s.flushPending(); err != nil {
		return err
	}
	s.batching = false
	s.closed = true
	s.closeReader()
	return s.rotate()
}

// Abandon releases the live segment's file handle without sealing or
// syncing it — the power-cut model: the file is left exactly as the
// operating system last saw it, unsynced tail included. Simulations
// (cluster.Crash) use it so crash/recover loops do not leak a descriptor
// per crash while a reopen truncates the same file the stale handle still
// aliases. The store is unusable afterwards; reopen the directory with
// Open to recover.
func (s *Store) Abandon() {
	if s.closed {
		return
	}
	s.closed = true
	s.closeReader()
	if s.cur != nil {
		_ = s.cur.Close()
		s.cur = nil
		s.dirty = false
	}
}

// syncDir fsyncs a directory so renames and removals within it are
// durable. Best effort on platforms where directories cannot be synced.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir: %w", err)
	}
	// Directory fsync is not supported everywhere; ignore the error and
	// keep the close error, which would indicate a real problem.
	_ = f.Sync()
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close dir: %w", err)
	}
	return nil
}
