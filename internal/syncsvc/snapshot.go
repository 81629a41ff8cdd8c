// Snapshot catch-up: the third tier of the sync service. A joining (or
// wiped) replica first fetches a roster-certified state commitment —
// each peer serves its own signed (slot, root); f+1 distinct valid
// signers on one pair form a certificate no byzantine minority can
// forge — then streams the snapshot chunks for that root, verifying
// every chunk structurally on arrival and the whole content against the
// certified root before anything is installed (state.Builder). Only
// then does it seed its DAG with the peer's pruned-history base and
// switch to the bulk-delta and live-follow tiers for everything above
// the horizon.
//
// Trust: the certificate covers exactly (slot, root) — the state
// content. The base table and horizon that ride along are a single
// peer's local claim and are NOT certified; a lying peer can at worst
// stall the join (blocks above a bogus horizon will not connect and the
// client moves to another peer), never corrupt state, because every
// block entering the DAG still passes full Definition 3.3 validation
// and the installed tree was verified against the certified root.

package syncsvc

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/state"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// ServedSnapshot is what a server offers the snapshot tier: its own
// signed commit over the sealed state, the chunk stream that rebuilds
// it, and the DAG position (base, horizon) a joiner needs to resume
// above the pruned history. Chunks must be the state.Export encoding of
// the committed tree; Base and Horizon describe this server's store.
type ServedSnapshot struct {
	Signed  state.SignedCommit
	Chunks  [][]byte
	Base    []dag.Base
	Horizon map[types.ServerID]uint64
}

// SnapMeta is the decoded answer to a snapshot-meta query.
type SnapMeta struct {
	// Has reports whether the peer had a sealed snapshot at all; the
	// remaining fields are meaningful only when true.
	Has       bool
	Signed    state.SignedCommit
	NumChunks uint64
	Base      []dag.Base
	Horizon   map[types.ServerID]uint64
}

// maxSnapChunks bounds the chunk count a client will accept for one
// snapshot stream.
const maxSnapChunks = 1 << 20

// EncodeSnapMetaRequest renders a snapshot-meta query.
func EncodeSnapMetaRequest() []byte { return []byte{reqSnapMeta} }

// EncodeSnapMetaFrame renders the answer to a snapshot-meta query. A
// nil snapshot encodes "no sealed snapshot yet".
func EncodeSnapMetaFrame(ss *ServedSnapshot) []byte {
	w := wire.NewWriter(64)
	w.Byte(frameSnapMeta)
	w.Bool(ss != nil)
	if ss == nil {
		return w.Bytes()
	}
	w.VarBytes(ss.Signed.Encode())
	w.Uvarint(uint64(len(ss.Chunks)))
	w.Uvarint(uint64(len(ss.Horizon)))
	for _, id := range sortedIDs(ss.Horizon) {
		w.Uint16(uint16(id))
		w.Uvarint(ss.Horizon[id])
	}
	w.Uvarint(uint64(len(ss.Base)))
	for _, e := range ss.Base {
		w.Uint16(uint16(e.Builder))
		w.Uvarint(e.Seq)
		w.Bytes32(e.Ref)
	}
	return w.Bytes()
}

// sortedIDs returns the map's keys in ascending order, for a canonical
// encoding.
func sortedIDs(m map[types.ServerID]uint64) []types.ServerID {
	return slices.Sorted(maps.Keys(m))
}

// DecodeSnapMetaFrame inverts EncodeSnapMetaFrame.
func DecodeSnapMetaFrame(frame []byte) (*SnapMeta, error) {
	r := wire.NewReader(frame)
	if k := r.Byte(); r.Err() == nil && k != frameSnapMeta {
		return nil, fmt.Errorf("syncsvc: unexpected frame kind %d, want snapshot meta", k)
	}
	m := &SnapMeta{Has: r.Bool()}
	if !m.Has {
		if err := r.Close(); err != nil {
			return nil, fmt.Errorf("syncsvc: bad snapshot meta: %w", err)
		}
		return m, nil
	}
	sc, err := state.DecodeSignedCommit(r.VarBytes())
	if r.Err() == nil && err != nil {
		return nil, fmt.Errorf("syncsvc: bad snapshot meta: %w", err)
	}
	m.Signed = sc
	m.NumChunks = r.Uvarint()
	nHorizon := r.Count(maxWatermarks)
	if nHorizon > 0 {
		m.Horizon = make(map[types.ServerID]uint64, nHorizon)
	}
	for i := 0; i < nHorizon; i++ {
		id := types.ServerID(r.Uint16())
		m.Horizon[id] = r.Uvarint()
	}
	nBase := r.Count(maxWatermarks)
	m.Base = make([]dag.Base, 0, nBase)
	for i := 0; i < nBase; i++ {
		m.Base = append(m.Base, dag.Base{
			Builder: types.ServerID(r.Uint16()),
			Seq:     r.Uvarint(),
			Ref:     r.Bytes32(),
		})
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("syncsvc: bad snapshot meta: %w", err)
	}
	if m.NumChunks > maxSnapChunks {
		return nil, fmt.Errorf("syncsvc: snapshot meta claims %d chunks", m.NumChunks)
	}
	return m, nil
}

// EncodeSnapChunksRequest renders a chunk-stream request: which
// snapshot (by root, so a peer that re-sealed since the meta query
// fails loudly instead of serving mismatched chunks) and the first
// chunk index wanted — the resume point.
func EncodeSnapChunksRequest(root [32]byte, first uint64) []byte {
	w := wire.NewWriter(48)
	w.Byte(reqSnapChunks)
	w.Bytes32(root)
	w.Uvarint(first)
	return w.Bytes()
}

// decodeSnapChunksRequest inverts EncodeSnapChunksRequest.
func decodeSnapChunksRequest(req []byte) (root [32]byte, first uint64, err error) {
	r := wire.NewReader(req)
	if k := r.Byte(); r.Err() == nil && k != reqSnapChunks {
		return root, 0, fmt.Errorf("syncsvc: unexpected request kind %d", k)
	}
	root = r.Bytes32()
	first = r.Uvarint()
	if err := r.Close(); err != nil {
		return root, 0, fmt.Errorf("syncsvc: bad chunk request: %w", err)
	}
	return root, first, nil
}

// EncodeSnapChunkFrame renders one chunk-stream frame. The chunk bytes
// are the state.Export encoding, self-describing (index and entries),
// so the frame adds only the kind byte and a length.
func EncodeSnapChunkFrame(chunk []byte) []byte {
	w := wire.NewWriter(len(chunk) + 8)
	w.Byte(frameSnapChunk)
	w.VarBytes(chunk)
	return w.Bytes()
}

// serveSnapMeta answers one snapshot-meta query.
func (s *Server) serveSnapMeta(st transport.ServerStream) {
	var snap *ServedSnapshot
	if s.Snapshot != nil {
		snap = s.Snapshot()
	}
	if err := st.Send(EncodeSnapMetaFrame(snap)); err != nil {
		return // stream lost; nothing left to tell anyone
	}
	st.Close(nil)
}

// serveSnapChunks streams snapshot chunks from the requested resume
// point, closing with a done summary. A request for a root this server
// no longer (or never) holds fails loudly so the client re-queries the
// meta instead of applying mismatched chunks.
func (s *Server) serveSnapChunks(req []byte, st transport.ServerStream) {
	root, first, err := decodeSnapChunksRequest(req)
	if err != nil {
		st.Close(err)
		return
	}
	var snap *ServedSnapshot
	if s.Snapshot != nil {
		snap = s.Snapshot()
	}
	if snap == nil {
		st.Close(errors.New("syncsvc: no snapshot to serve"))
		return
	}
	if snap.Signed.Commit.Root != root {
		st.Close(errors.New("syncsvc: snapshot changed, re-query meta"))
		return
	}
	if first > uint64(len(snap.Chunks)) {
		st.Close(fmt.Errorf("syncsvc: resume point %d beyond %d chunks", first, len(snap.Chunks)))
		return
	}
	var total uint64
	for _, c := range snap.Chunks[first:] {
		if err := st.Send(EncodeSnapChunkFrame(c)); err != nil {
			return
		}
		total++
	}
	if err := st.Send(EncodeDoneFrame(total)); err != nil {
		return
	}
	st.Close(nil)
}

// SnapMetaQuery is the client side of one snapshot-meta call.
type SnapMetaQuery struct {
	settled
	meta *SnapMeta
}

var _ transport.CallSink = (*SnapMetaQuery)(nil)

// NewSnapMetaQuery prepares a snapshot-meta query.
func NewSnapMetaQuery() *SnapMetaQuery {
	return &SnapMetaQuery{settled: newSettled(nil)}
}

// OnFrame implements transport.CallSink.
func (q *SnapMetaQuery) OnFrame(frame []byte) {
	q.frame(func() error {
		if q.meta != nil {
			return errors.New("syncsvc: second frame on a snapshot-meta query")
		}
		m, err := DecodeSnapMetaFrame(frame)
		if err != nil {
			return err
		}
		q.meta = m
		return nil
	})
}

// OnDone implements transport.CallSink.
func (q *SnapMetaQuery) OnDone(err error) {
	q.settle(err, func() error {
		if q.meta == nil {
			return errors.New("syncsvc: snapshot-meta query ended without an answer")
		}
		return nil
	})
}

// Result returns the peer's snapshot meta and the terminal error.
func (q *SnapMetaQuery) Result() (*SnapMeta, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.meta, q.err
}

// SnapChunkPull is the client side of one chunk stream: a
// transport.CallSink feeding a state.Builder. Every chunk is verified
// structurally before it touches the builder's tree (a rejected chunk
// leaves the builder untouched), so a broken stream is resumable from
// Builder.NextChunk — against the same peer after a retry, or a fresh
// builder against another. The final root check is the caller's
// Builder.Finish.
type SnapChunkPull struct {
	settled
	builder  *state.Builder
	accepted [][]byte
	streamed uint64
	claimed  uint64
	sawDone  bool
}

var _ transport.CallSink = (*SnapChunkPull)(nil)

// NewSnapChunkPull wraps a builder for one stream attempt. The builder
// is shared across attempts (that is what makes resume work); the
// caller must not touch it until the pull is Done.
func NewSnapChunkPull(b *state.Builder) *SnapChunkPull {
	return &SnapChunkPull{settled: newSettled(nil), builder: b}
}

// Request encodes the chunk request resuming at the builder's position.
func (p *SnapChunkPull) Request(root [32]byte) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return EncodeSnapChunksRequest(root, uint64(p.builder.NextChunk()))
}

// OnFrame implements transport.CallSink.
func (p *SnapChunkPull) OnFrame(frame []byte) {
	p.frame(func() error { return p.consume(frame) })
}

// consume processes one stream frame under the lock.
func (p *SnapChunkPull) consume(frame []byte) error {
	r := wire.NewReader(frame)
	switch r.Byte() {
	case frameSnapChunk:
		chunk := r.VarBytes()
		if err := r.Close(); err != nil {
			return fmt.Errorf("syncsvc: bad chunk frame: %w", err)
		}
		p.streamed++
		if p.streamed > maxSnapChunks {
			return fmt.Errorf("syncsvc: stream exceeds %d chunks", maxSnapChunks)
		}
		// The builder verifies the chunk before applying it; a tampered,
		// truncated, or out-of-order chunk fails here, explicitly, with
		// the builder's tree untouched — the stream never applies
		// partially.
		if err := p.builder.Add(chunk); err != nil {
			return fmt.Errorf("syncsvc: chunk %d rejected: %w", p.builder.NextChunk(), err)
		}
		p.accepted = append(p.accepted, bytes.Clone(chunk))
		return nil
	case frameDone:
		p.claimed = r.Uvarint()
		if err := r.Close(); err != nil {
			return fmt.Errorf("syncsvc: bad done frame: %w", err)
		}
		p.sawDone = true
		return nil
	default:
		return errors.New("syncsvc: unknown stream frame")
	}
}

// OnDone implements transport.CallSink.
func (p *SnapChunkPull) OnDone(err error) {
	p.settle(err, func() error {
		if !p.sawDone {
			return errors.New("syncsvc: chunk stream ended without done frame")
		}
		if p.claimed != p.streamed {
			return fmt.Errorf("syncsvc: server claimed %d chunks, streamed %d", p.claimed, p.streamed)
		}
		return nil
	})
}

// Result returns the chunks the builder accepted during this pull (in
// stream order) and the terminal error. Accepted chunks are verified
// and already applied to the shared builder whatever the error.
func (p *SnapChunkPull) Result() ([][]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted, p.err
}

// chunkAttemptsPerPeer bounds chunk-stream attempts against one peer; a
// retry resumes from the builder's position.
const chunkAttemptsPerPeer = 2

// FetchedSnapshot is a verified, certified snapshot ready to install:
// store.InstallSnapshot journals Horizon/Base/Chunks, the DAG seeds
// from Base, and the state machine installs Tree at Commit.
type FetchedSnapshot struct {
	// Commit is the certified (slot, root) pair.
	Commit state.Commit
	// Cert is the certificate: f+1 SignedCommits from distinct valid
	// signers over Commit (state.CertifiedBy holds).
	Cert []state.SignedCommit
	// Tree is the verified state content — its root equals Commit.Root.
	Tree *state.Tree
	// Chunks is the verified chunk stream in order, ready to journal as
	// the store's state checkpoint.
	Chunks [][]byte
	// Base and Horizon are the anchor peer's pruned-history position —
	// uncertified, see the file comment for why that is safe.
	Base    []dag.Base
	Horizon map[types.ServerID]uint64
	// Anchor is the peer that served the chunk stream; delta follow-up
	// should try it first, since it provably holds everything above the
	// returned Horizon.
	Anchor types.ServerID
}

// FetchSnapshot runs the snapshot tier to completion: query every peer's
// snapshot meta, find the newest (slot, root) certified by f+1 distinct
// signers, then stream and verify the chunks from the certified peers
// (resuming within a peer, restarting the builder across peers). A nil
// error guarantees Tree's root equals the certified Commit.Root.
func FetchSnapshot(cfg FetchConfig) (*FetchedSnapshot, error) {
	switch {
	case cfg.Transport == nil:
		return nil, errors.New("syncsvc: snapshot fetch needs a Transport")
	case cfg.Roster == nil:
		return nil, errors.New("syncsvc: snapshot fetch needs a Roster")
	case len(cfg.Peers) == 0:
		return nil, errors.New("syncsvc: snapshot fetch needs at least one peer")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	metas := make(map[types.ServerID]*SnapMeta)
	for _, peer := range cfg.Peers {
		q := NewSnapMetaQuery()
		cancel := cfg.Transport.Call(peer, transport.ChanSync, EncodeSnapMetaRequest(), q)
		if !q.Wait(timeout) {
			cancel()
			continue
		}
		m, err := q.Result()
		if err != nil || m == nil || !m.Has {
			continue
		}
		if m.Signed.Verify(cfg.Roster) != nil {
			continue // forged or out-of-roster commit: ignore the peer
		}
		metas[peer] = m
	}
	commit, group, err := certifiedGroup(metas, cfg.Roster)
	if err != nil {
		return nil, err
	}

	var lastErr error
	for _, peer := range group {
		meta := metas[peer]
		builder := state.NewBuilder(commit.Root)
		var chunks [][]byte
		ok := true
		for a := 0; a < chunkAttemptsPerPeer && uint64(builder.NextChunk()) < meta.NumChunks; a++ {
			pull := NewSnapChunkPull(builder)
			cancel := cfg.Transport.Call(peer, transport.ChanSync, pull.Request(commit.Root), pull)
			if !pull.Wait(timeout) {
				cancel()
			}
			got, perr := pull.Result()
			chunks = append(chunks, got...)
			if perr != nil {
				lastErr = fmt.Errorf("syncsvc: peer %v: %w", peer, perr)
			}
		}
		if uint64(builder.NextChunk()) < meta.NumChunks {
			ok = false
		}
		if !ok {
			continue // broken peer; a fresh builder against the next one
		}
		tree, ferr := builder.Finish()
		if ferr != nil {
			// All chunks verified structurally but the content does not
			// hash to the certified root — the peer served a consistent
			// lie. Nothing was installed; try the next certified peer.
			lastErr = fmt.Errorf("syncsvc: peer %v: %w", peer, ferr)
			continue
		}
		return &FetchedSnapshot{
			Commit:  commit,
			Cert:    certFor(metas, group, commit),
			Tree:    tree,
			Chunks:  chunks,
			Base:    meta.Base,
			Horizon: meta.Horizon,
			Anchor:  peer,
		}, nil
	}
	if lastErr == nil {
		lastErr = errors.New("syncsvc: no certified peer completed a snapshot stream")
	}
	return nil, lastErr
}

// certifiedGroup finds the newest (slot, root) pair backed by f+1
// distinct valid signers among the collected metas, returning the
// serving peers ordered deterministically (ascending ID).
func certifiedGroup(metas map[types.ServerID]*SnapMeta, roster *crypto.Roster) (state.Commit, []types.ServerID, error) {
	type groupKey struct {
		slot uint64
		root [32]byte
	}
	groups := make(map[groupKey]map[types.ServerID]*SnapMeta)
	for peer, m := range metas {
		k := groupKey{slot: m.Signed.Commit.Slot, root: m.Signed.Commit.Root}
		if groups[k] == nil {
			groups[k] = make(map[types.ServerID]*SnapMeta)
		}
		groups[k][peer] = m
	}
	var (
		best     state.Commit
		bestPeer []types.ServerID
		found    bool
	)
	for k, g := range groups {
		scs := make([]state.SignedCommit, 0, len(g))
		for _, m := range g {
			scs = append(scs, m.Signed)
		}
		if !state.CertifiedBy(scs, roster) {
			continue
		}
		if !found || k.slot > best.Slot {
			best = state.Commit{Slot: k.slot, Root: k.root}
			bestPeer = slices.Sorted(maps.Keys(g))
			found = true
		}
	}
	if !found {
		return state.Commit{}, nil, fmt.Errorf("syncsvc: no state commit certified by %d+1 distinct signers", roster.F())
	}
	return best, bestPeer, nil
}

// certFor collects the group's signed commits over the certified pair.
func certFor(metas map[types.ServerID]*SnapMeta, group []types.ServerID, c state.Commit) []state.SignedCommit {
	out := make([]state.SignedCommit, 0, len(group))
	for _, p := range group {
		if m := metas[p]; m != nil && m.Signed.Commit.Slot == c.Slot && m.Signed.Commit.Root == c.Root {
			out = append(out, m.Signed)
		}
	}
	return out
}
