// Package store is the durable block store: an append-only, segmented
// write-ahead log (WAL) of blocks plus the cut that deletes history below
// a sealed state, giving a server the persisted DAG that
// core.Server.Restore replays after a crash (the paper's Section 7
// crash-recovery discussion made operational).
//
// The store keeps bytes, not validity. Open answers for framing and
// checksums — it reads the files in order, truncates a torn tail, finishes
// a crashed cut, drops duplicate records — and returns the blocks in file
// order, which is a topological order: WAL order is insertion order. It
// builds no DAG and checks no signature. Definition 3.3 is checked once, in the live
// DAG, when core.Server.Restore absorbs the blocks the way a pulled stream
// is absorbed: the disk is one more untrusted peer. Offline tools that
// want validity insert the blocks into a DAG of their own (cmd/dagstore).
//
// Nor does it keep an index: Len is a count, the journaled frontier, and
// the location column (below) is by row, the DAG's number. The server's DAG
// numbers each block once and hands each to PersistSink once, in that
// order, so a block below the frontier Open found is one coming back
// through Restore's replay — told by the references of what Open read, the
// one thing the store keeps of those blocks once the replay has them —
// skipped, and every other is appended. A failed
// write takes its records back out of the count, cuts the live segment back
// to its last whole record and ends it — the next append opens a fresh one —
// and core latches the server unhealthy; if the torn tail could not be cut
// off, the store is failed and refuses every later append — never a journal
// with a hole.
//
// # On-disk layout
//
// A store is two kinds of file: WAL segments named by a monotonically
// increasing hexadecimal index, and at most one head:
//
//	0000000000000004.wal    oldest segment a cut left: it straddles the horizon
//	0000000000000005.wal    WAL segments, record-framed
//	0000000000000006.wal    the live segment
//	head                    horizon, base table, state checkpoint, equivocation proofs
//
// Every segment starts with a 9-byte header: the 8-byte magic "BDSTOR1\n"
// and the kind byte 4. Open reads the head, if there is one, and then every
// segment in index order.
//
// Retired formats fail Open as ErrCorrupt, each named: a segment of kind 1
// (the raw-frame WAL), 2 or 3 (the snapshot segments), any file named like
// a snapshot segment (*.snap), the evidence sidecar evidence.log (where the
// proofs lived before the head held them), and a head behind the magic
// "BDHEAD1\n" (the head before it held them). A store written before is
// refused rather than opened without its history or its bans.
//
// # WAL segments
//
// A WAL segment (kind 4) is a sequence of records, each framed as
//
//	[length uint32 BE][crc32(IEEE) of payload uint32 BE][payload]
//
// where the payload lays one block out:
//
//	builder uint16 BE, seq uvarint,
//	predecessor count uvarint, per predecessor: k uvarint [ref 32 bytes if k = 0],
//	request count uvarint, per request: label, data (each uvarint length + bytes),
//	signature (uvarint length + bytes)
//
// A predecessor k ≥ 1 is the block of the k-th most recent record of the
// same segment (k = 1 the record just before); k = 0 is followed by the
// 32-byte ref. The writer names a predecessor by the distance to its
// latest record among the segment's last 64 (the window, walWindow) and
// writes the ref only when the window holds none — the one way a record
// is written, and the only one the reader accepts. A block cites its
// parent and the tips its builder saw since, which every server journals
// moments before, so a near-empty block's two to n references cost a byte
// each instead of 32. The window starts empty in every segment, so a
// segment reads alone, and the writer frames a record only once it knows
// which segment the record lands in: a rotation in the middle of a batch
// cannot leave a reference into the previous file. Readers rebuild each
// block's canonical frame from the fields, so ref(B) is re-derived and the
// signature verifies end to end.
//
// The per-record CRC exists because WAL tails are written incrementally and
// a power cut can tear the last record: Open scans forward and, when the
// final segment ends in a record that is not whole (too short, or its
// checksum does not match — a zero-filled tail reads as records of length 0
// and checksum 0, and counts as one), truncates the file back to the last
// whole record instead of failing — the torn-tail property tested
// exhaustively in TestOpenTornTail. Such a record in any non-final position
// is not a torn write and surfaces as ErrCorrupt. So does a whole record
// that does not decode, in any segment: its checksum matched, so it was
// written whole, and a block block.Decode refuses (a garbage record, or one
// an older build journaled past today's bounds) is corruption; the error
// names the segment, the record's offset and why, and Open leaves the file
// as it was. Truncating it would drop the records after it too, own blocks
// peers may hold among them. Open resumes a final segment with room, its
// window rebuilt from the scan.
//
// WAL segments rotate when they exceed 8 MiB, so deleting
// the segments a cut leaves below its horizon is cheap file removal.
//
// # The head and the cut
//
// The block DAG is append-only: every block a server inserted stays in the
// joint DAG, so the store holds every block it journals, and only sealed,
// certified state can stand in for history. That is the cut, PruneTo: it
// raises the sticky per-builder horizon, computes from the DAG's rows the
// base table — every block below the horizon a retained block cites, and
// each builder's block just below it — publishes the head, marks the rows
// below the horizon pruned, and deletes every WAL segment but the live one
// that holds no record at or above the horizon. The head is the horizon,
// the base table, the state checkpoint and the proofs section, laid out
// behind the magic "BDHEAD2\n" and covered by one CRC32 trailer; it is
// written whole (temp file, fsync, rename, directory fsync), so it needs
// no tear tolerance. InstallSnapshot writes the same head into a
// snapshot-joined node's empty store; in memory it is one immutable Head,
// swapped whole (Head). A cut writes nothing else: the blocks above the
// horizon are already on disk, and each segment reads without any other,
// so the cut's I/O is the head's whatever the retained window holds.
//
// The proofs section is a uvarint count and then each equivocation proof
// (evidence.Proof.Encode, uvarint length-prefixed), one per equivocator in
// equivocator order: the convictions. A proof's two blocks may never be
// insertable into the local DAG, so the block log cannot rebuild a ban; the
// proof is the durable artifact. AppendEvidence rewrites the head as it was
// last made durable, plus the proof — a checkpoint SetStateCheckpoint holds
// only in memory waits for the next cut — before it returns, whatever the
// fsync policy: once per convicted builder. PruneTo and InstallSnapshot
// carry the proofs into every head they write, and Open re-verifies them
// against Options.Roster, dropping one that no longer verifies. A head
// holding proofs and nothing else stands in for no history: it leaves
// OpenReport.HasSnapshot false, and no syncsvc peer serves it.
//
// Nothing a retained block cites is lost: its predecessors are retained
// too, or stand in the base table. Nothing above the horizon is lost: a
// segment is deleted only when every record in it lies below, so a segment
// straddling the horizon stays whole, and Open skips its records below the
// horizon — such a record is not a row. Disk is therefore O(state +
// retained window + the straddling segments): one per cut while the
// builders run in step, so that every record past some point of the WAL
// lies above the horizon and every one before it below; a lagging
// builder's chain keeps each segment that holds one of its retained
// records. The segment size is not tuned for this.
//
// The crash argument: the head is durable before any segment is deleted.
// A crash before the rename leaves the old head (and a temp file Open
// sweeps); a crash between the rename and the deletions leaves extra
// segments, and Open skips their records below the horizon. A read-write
// Open deletes each non-final segment that holds no record at or above
// the horizon — it counts them as StaleSegments, finishing the cut — and
// a read-only Open only reports them.
//
// # Reading a block back
//
// The DAG lets go of a block's bytes once every chain has read it, and the
// journal answers for them from then on (Block, core.Journal): RAM holds
// the window, the store the history. The row gives the predecessors: the
// DAG keeps a row's edges for good and hands Block their references. The
// record gives the rest: the store keeps a location column — one word a
// row, the segment and the record's offset, written when the record is and
// rebuilt by Open for what it reads — and reads the record back with the
// codec Open reads with, each name it gives a predecessor (a
// back-reference or a literal ref) consumed and standing for the row's. A
// record naming another number of predecessors is an error, and a row
// below the horizon of a cut is dag.ErrPruned. The DAG checks that the
// block rebuilds the row's reference: the store keeps no reference of what
// it appends or reads, so a record means the same whatever lies beside it.
//
// This is the one way a block leaves the disk while a node runs: a catch-up
// server's node reads what it sends this way too, and only Open scans.
//
// A row still in the open group-commit batch is answered from the batch,
// and one whose write failed from memory: the DAG may have released it on
// the strength of the append (the server stops releasing at the journal's
// first error). Nothing read back is verified again: this process checked
// every block's signature before journaling it, or Restore checked it when
// Open read it, and the record's checksum and the DAG's reference check
// stand between the disk and a different block.
//
// # Fsync policy
//
// Options.Sync picks the durability/latency trade-off for Append:
//
//   - SyncInterval (default): appends are flushed to the OS immediately
//     but fsynced at most once per 200 ms on Options.Clock (syncEvery,
//     driven by Append and by Tick from the node runtime). A power cut can
//     lose up to the last interval of appends.
//   - SyncAlways: fsync after every append. The block is durable before
//     the interpreter can emit its indications — the strongest guarantee,
//     and the slowest (see BenchmarkStoreAppend).
//   - SyncNever: leave flushing to the OS entirely. For simulations,
//     tests, and workloads where the store is a cache of the cluster.
//
// # Own blocks: the externalization barrier
//
// The policy alone bounds what a power cut can lose, but whether that
// loss is safe depends on who built the lost blocks:
//
//   - Received blocks are refetched: gossip's FWD retries pull anything a
//     peer still references, so losing an unsynced tail of them only ever
//     costs re-download.
//   - Own blocks are different. The server broadcasts its own block the
//     moment it is built; if the block is then lost with an unsynced WAL
//     tail, the replay continues the own chain from the highest *replayed*
//     own sequence number and re-signs a different block at a number
//     peers have already seen — self-equivocation by a correct
//     server, a safety violation no refetch can repair.
//
// PersistSink is therefore the required hook for a store backing a live server:
// it force-syncs own blocks before returning, and since core runs the hook
// before gossip's broadcast loop, an own block is durable before it is
// externalized under every policy. Wired that way (node.Config.Store and
// package cluster do it automatically), unsynced-tail loss is confined to
// received blocks and costs re-download, never safety. A bare Append sink
// does not provide this barrier: under SyncInterval or SyncNever it risks
// exactly the post-crash self-equivocation above.
//
// Losing recent unsynced received blocks is safe in every policy because the
// WAL holds only blocks that are (or were about to be) in the cluster's joint
// DAG: recovery yields a prefix of the pre-crash DAG, Restore validates it
// and resumes the own chain without equivocating (durable up to the published
// head by the barrier), and anything lost is refetched.
// Indications replayed from the store repeat pre-crash deliveries — the
// at-least-once indication semantics documented at core.Server.Restore,
// which is the authoritative statement of the recovery contract.
package store
