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
// What a peer serves is its store's head (store.Head): the horizon, base
// table and state checkpoint its store last set or journaled, read whole
// on every call, and what the joiner installs is the head it decoded from
// the meta frame, with the verified checkpoint set on it. The frame lays
// the head's position out as the head file does (store.Head.WritePosition)
// and is read back by the same decoder (store.ReadPosition). A cut
// publishes its head in one step, so a served horizon is never older than
// the store's.
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
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// SnapMeta is the answer to a snapshot-meta query: the server's own signed
// commit over its head's checkpoint, the checkpoint's chunk count, and the
// head itself, whose position (base, horizon) a joiner needs to resume
// above the pruned history.
type SnapMeta struct {
	Signed    state.SignedCommit
	NumChunks uint64
	// Head is the served head, nil if the peer has no sealed snapshot. Only
	// its position goes on the wire (store.Head.WritePosition): a decoded
	// meta's head holds no state checkpoint and no proofs.
	Head *store.Head
}

// maxSnapChunks bounds the chunk count a client will accept for one
// snapshot stream.
const maxSnapChunks = 1 << 20

// EncodeSnapMetaRequest renders a snapshot-meta query.
func EncodeSnapMetaRequest() []byte { return []byte{reqSnapMeta} }

// EncodeSnapMetaFrame renders the answer to a snapshot-meta query; a meta
// without a head encodes "no sealed snapshot yet". The head's position is
// laid out as the head file lays it out.
func EncodeSnapMetaFrame(m *SnapMeta) []byte {
	w := wire.NewWriter(64)
	w.Byte(frameSnapMeta)
	w.Bool(m.Head != nil)
	if m.Head == nil {
		return w.Bytes()
	}
	w.VarBytes(m.Signed.Encode())
	w.Uvarint(m.NumChunks)
	m.Head.WritePosition(w)
	return w.Bytes()
}

// DecodeSnapMetaFrame inverts EncodeSnapMetaFrame, and takes nothing the
// encoder would not write (store.ReadPosition).
func DecodeSnapMetaFrame(frame []byte) (*SnapMeta, error) {
	r := wire.NewReader(frame)
	if k := r.Byte(); r.Err() == nil && k != frameSnapMeta {
		return nil, fmt.Errorf("syncsvc: unexpected frame kind %d, want snapshot meta", k)
	}
	m := &SnapMeta{}
	if r.Bool() {
		sc, err := state.DecodeSignedCommit(r.VarBytes())
		if r.Err() == nil && err != nil {
			return nil, fmt.Errorf("syncsvc: bad snapshot meta: %w", err)
		}
		m.Signed, m.NumChunks = sc, r.Uvarint()
		if m.Head, err = store.ReadPosition(r); err != nil {
			return nil, fmt.Errorf("syncsvc: bad snapshot meta: %w", err)
		}
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

// served returns the head the server offers the snapshot tier: its store's,
// while a runtime is registered there (a node that has not started, or has
// stopped, serves none) and the head holds a state checkpoint; else nil.
func (s *Server) served() *store.Head {
	if s.Signer == nil || s.Store == nil || s.Store.Runtime() == nil {
		return nil
	}
	if h := s.Store.Head(); h.State != nil {
		return h
	}
	return nil
}

// serveSnapMeta answers one snapshot-meta query: the served head, its
// checkpoint's (slot, root) signed by the server's own key.
func (s *Server) serveSnapMeta(st transport.ServerStream) {
	m := &SnapMeta{}
	if h := s.served(); h != nil {
		m = &SnapMeta{Signed: state.SignCommit(h.State.Commit, s.Signer), NumChunks: uint64(len(h.State.Chunks)), Head: h}
	}
	if err := st.Send(EncodeSnapMetaFrame(m)); err != nil {
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
	h := s.served()
	if h == nil {
		st.Close(errors.New("syncsvc: no snapshot to serve"))
		return
	}
	if h.State.Root != root {
		st.Close(errors.New("syncsvc: snapshot changed, re-query meta"))
		return
	}
	chunks := h.State.Chunks
	if first > uint64(len(chunks)) {
		st.Close(fmt.Errorf("syncsvc: resume point %d beyond %d chunks", first, len(chunks)))
		return
	}
	var total uint64
	for _, c := range chunks[first:] {
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
// store.InstallSnapshot makes Head the store's, from which node.New seeds
// the DAG and restores the state machine.
type FetchedSnapshot struct {
	// Head is what to install: the certified (slot, root) with its verified
	// chunk stream, in order, as the state checkpoint, over the anchor
	// peer's base and horizon — uncertified, see the file comment for why
	// that is safe.
	Head *store.Head
	// Cert is the certificate: f+1 SignedCommits from distinct valid
	// signers over Head.State's (slot, root) (state.CertifiedBy holds).
	Cert []state.SignedCommit
	// Anchor is the peer that served the chunk stream; delta follow-up
	// should try it first, since it provably holds everything above the
	// returned horizon.
	Anchor types.ServerID
}

// FetchSnapshot runs the snapshot tier to completion: query every peer's
// snapshot meta, find the newest (slot, root) certified by f+1 distinct
// signers, then stream and verify the chunks from the certified peers
// (resuming within a peer, restarting the builder across peers). A nil
// error guarantees the chunks rebuild the certified root. A peer's meta
// counts only if the peer signed it itself: a server that relays another's
// signed commit is ignored, as a forged one is.
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
		if err != nil || m == nil || m.Head == nil {
			continue
		}
		if m.Signed.Server != peer || m.Signed.Verify(cfg.Roster) != nil {
			continue // forged, out-of-roster or relayed commit: ignore the peer
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
			continue // broken peer; a fresh builder against the next one
		}
		if _, ferr := builder.Finish(); ferr != nil {
			// All chunks verified structurally but the content does not
			// hash to the certified root — the peer served a consistent
			// lie. Nothing was installed; try the next certified peer.
			lastErr = fmt.Errorf("syncsvc: peer %v: %w", peer, ferr)
			continue
		}
		meta.Head.State = &store.StateCheckpoint{Commit: commit, Chunks: chunks}
		return &FetchedSnapshot{Head: meta.Head, Cert: certFor(metas, group, commit), Anchor: peer}, nil
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
	groups := make(map[state.Commit]map[types.ServerID]*SnapMeta)
	for peer, m := range metas {
		k := m.Signed.Commit
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
		if !found || k.Slot > best.Slot {
			best, bestPeer, found = k, slices.Sorted(maps.Keys(g)), true
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
		if m := metas[p]; m != nil && m.Signed.Commit == c {
			out = append(out, m.Signed)
		}
	}
	return out
}
