// Package syncsvc is the state-transfer service on transport.ChanSync —
// the non-gossip protocol surface a replica uses to converge in bulk
// instead of one FWD round trip per block.
//
// # The delta call
//
// The first byte of a request selects the call; the snapshot tier's two
// are in snapshot.go, and the one every trigger — startup catch-up, the
// live follower, a simulated recovery — makes is the delta (bulk pull).
// The client states what it already holds as a per-builder horizon —
// NextSeq per builder, meaning "I hold every block by this builder below
// NextSeq" — and the server streams, from its node's DAG (Source), every
// row the horizon does not cover, in row order, chunked into batches under
// wire.MaxFrame, closed by a done summary carrying the total count. A
// node always asks with its own current horizon (package node), so only
// the missing suffix crosses the wire, and only it is read: a k-block lag
// costs k block reads.
//
// The early answer: a server with a live vector of its own
// (Server.Watermarks; a node's is its DAG's chain heads, Vector)
// first compares the two by Lag, and when the requester lacks nothing it
// closes the stream with done(0) before its node is asked for anything.
// That is the live follower's poll (node.Node.Tick, when gossip shows lag):
// one call, and a stream only when there is something to stream.
//
// Watermarks can express exactly the honest shape — the DAG's parent
// rule forces every builder's held blocks into a prefix-closed chain —
// so a builder the requester holds an equivocation of is marked Forked:
// its NextSeq still says whether the server is ahead (a node that holds
// the fork is not re-streamed that chain every poll, even by a peer that
// never saw it), but no prefix of it is skipped once a stream is served —
// the requester gets everything of that builder and deduplicates, and
// equivocation variants beyond a horizon travel via gossip's FWD path,
// which stays armed as the fallback for whatever bulk transfer has not
// delivered. A server leaves the builders it knows forked out of its own
// vector, so they never make a requester lag.
//
// # Threat model
//
// The serving peer is untrusted, and what it sends is checked in two
// places, each once. On the stream (Pull): frames must decode, every
// block's builder must be a roster member and its signature must verify,
// the block count stays under a cap, and the done summary must match what
// was streamed, so silent truncation is caught. In the DAG that will hold
// the block (core.Server.AbsorbVerified, the insert a gossiped block
// takes): parent rule, predecessor closure, duplicates — there is no
// second copy of Definition 3.3 here. A forged, ill-ordered or over-long
// stream aborts with an error (ErrBadStream, or the DAG's own sentinel)
// and costs the peer its standing; the blocks accepted before the abort
// are genuine and are kept, so a malicious server can at worst serve less
// than it holds — an early done(0) included, which is no worse than not
// asking that peer — never claim more, and never corrupt the client. A
// stream that just stops (link death) is an error too, but nobody's
// fault. Requesters are untrusted too: every call passes the admission
// policy (per-peer in-flight cap, optional token bucket) and is refused
// with ErrThrottled before a byte of it is decoded or any row is read; an
// admitted one costs the rows it is sent, so understating a horizon buys no
// scan. A node not up yet refuses with ErrNotServing, charging nobody.
package syncsvc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/store"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Wire constants of the sync protocol (inside transport call frames).
// The first byte of a request selects the call.
const (
	// reqVersion opens a delta (bulk pull) stream and versions its request
	// encoding, independently of the transport version. Version 1 had no
	// Forked mark; 2 was also the first byte of the one-byte watermark
	// probe PR 5 to 29 spoke, which no longer decodes.
	reqVersion byte = 2
	// reqSnapMeta asks for the server's sealed state snapshot meta: its
	// signed (slot, root) commit, chunk count, and pruned-history
	// position — the first leg of the snapshot tier (see snapshot.go).
	reqSnapMeta byte = 3
	// reqSnapChunks opens a chunk stream for a named snapshot root,
	// resuming at a client-chosen chunk index.
	reqSnapChunks byte = 4

	// frameBlocks carries a batch of encoded blocks.
	frameBlocks byte = 1
	// frameDone ends the stream with the total number of blocks sent,
	// letting the client flag a server that closed early.
	frameDone byte = 2
	// frameSnapMeta answers a reqSnapMeta call.
	frameSnapMeta byte = 4
	// frameSnapChunk carries one snapshot chunk of a reqSnapChunks
	// stream (closed by frameDone, like a delta stream).
	frameSnapChunk byte = 5

	// maxWatermarks bounds a request's watermark list (a roster is
	// uint16-indexed, so this is generous).
	maxWatermarks = 1 << 16
	// maxBatch bounds the declared per-frame block count.
	maxBatch = 1 << 20
)

// ChunkBytes is the target size of one streamed batch frame, the rows a
// serving node reads in one turn (Source) — comfortably under wire.MaxFrame
// while amortizing per-frame overhead.
const ChunkBytes = 512 << 10

// DefaultMaxBlocks bounds how many blocks a client accepts from one pull
// before aborting (a hostile server must not stream forever).
const DefaultMaxBlocks = 1 << 20

// Watermark states that its holder has every block by Builder with
// Seq < NextSeq.
type Watermark struct {
	Builder types.ServerID
	NextSeq uint64
	// Forked, in a delta request, says the requester holds an equivocation
	// by Builder: NextSeq is compared with the server's own (is there
	// anything new?) but skips nothing — two chains share those numbers.
	Forked bool
}

// EncodeRequest renders a delta request: the requester's horizon, one
// entry per builder it holds blocks of, ascending by builder.
func EncodeRequest(have []Watermark) []byte {
	w := wire.NewWriter(2 + len(have)*7)
	w.Byte(reqVersion)
	w.Uvarint(uint64(len(have)))
	for _, wm := range have {
		w.Uint16(uint16(wm.Builder))
		w.Uvarint(wm.NextSeq)
		w.Bool(wm.Forked)
	}
	return w.Bytes()
}

// DecodeRequest inverts EncodeRequest. Builders must ascend strictly: a
// builder listed twice, or a permutation of the same entries, is not a
// second encoding of one request.
func DecodeRequest(data []byte) ([]Watermark, error) {
	r := wire.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != reqVersion {
		return nil, fmt.Errorf("syncsvc: unknown request version %d", v)
	}
	n := r.Count(maxWatermarks)
	have := make([]Watermark, 0, n)
	for i := 0; i < n; i++ {
		wm := Watermark{Builder: types.ServerID(r.Uint16()), NextSeq: r.Uvarint(), Forked: r.Bool()}
		if i > 0 && wm.Builder <= have[i-1].Builder && r.Err() == nil {
			return nil, fmt.Errorf("syncsvc: bad request: builder %d out of order", wm.Builder)
		}
		have = append(have, wm)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("syncsvc: bad request: %w", err)
	}
	return have, nil
}

// EncodeBatchFrame renders one stream frame carrying a batch of blocks —
// what the server sends, exposed for tests that hand-craft streams
// (including hostile ones). Each b.Encode() is the block's cached
// canonical frame (encode-once invariant): a block read back from the
// journal carries the frame the store's reader rebuilt from its record, so
// nothing is re-serialized here.
func EncodeBatchFrame(blocks []*block.Block) []byte {
	size := 16
	for _, b := range blocks {
		size += len(b.Encode()) + 4
	}
	w := wire.NewWriter(size)
	w.Byte(frameBlocks)
	w.Uvarint(uint64(len(blocks)))
	for _, b := range blocks {
		w.VarBytes(b.Encode())
	}
	return w.Bytes()
}

// EncodeDoneFrame renders the terminal summary frame.
func EncodeDoneFrame(total uint64) []byte {
	w := wire.NewWriter(10)
	w.Byte(frameDone)
	w.Uvarint(total)
	return w.Bytes()
}

// maxInFlightPerPeer caps concurrently served streams per requesting peer:
// one resume after a genuinely broken stream plus headroom, but nowhere near
// enough connections to pin a goroutine and a stream's reads per socket a
// byzantine peer opens. No deployment has set another value.
const maxInFlightPerPeer = 2

// ErrThrottled reports that the server refused a catch-up request under
// its per-peer admission policy (in-flight cap or token bucket). The
// request was not served at all; the client should back off and retry or
// switch peers — the block data itself is unaffected.
var ErrThrottled = errors.New("syncsvc: request throttled")

// ErrNotServing reports that the server had no node to stream from, not up
// yet or stopped: nobody's fault, and the client asks its next peer.
var ErrNotServing = errors.New("syncsvc: not serving yet")

// Families declares what a Server counts (Server.Counts): the requests it
// refused, per cause — the peer already had maxInFlightPerPeer streams being
// served, its token bucket was empty, or no node was up to stream from.
var Families metrics.Table

var (
	DropInFlight = Families.Counter("syncsvc_drops_total", "Sync-channel requests refused by admission control.", "cause", "inflight")
	DropRate     = Families.With(DropInFlight, "rate")
	DropStarting = Families.With(DropInFlight, "starting")
)

// Source is what a Server streams a delta from: the runtime registered on
// its store (node.Node; a test's fixed list). Stream hands send, in row order and
// in batches of about chunk bytes, every block the horizon next does not
// cover — a builder next leaves out whole — on the transport's goroutine.
type Source interface {
	Stream(next map[types.ServerID]uint64, chunk int, send func([]*block.Block) error) error
}

// Server serves the sync channel's calls — delta (catch-up) streams and
// the snapshot tier — on transport.ChanSync. It is safe for concurrent use
// (tcpnet invokes handlers on per-connection goroutines): the node reads
// a delta from its DAG (Source), never the server.
//
// Serving one delta request costs the rows it sends and a turn of the node
// per chunk; a requester that lacks nothing costs neither (Watermarks).
// Admission control bounds how often a peer may ask: a per-peer in-flight
// cap (always on) and an optional per-peer token bucket (Every/Burst)
// refuse excess requests with ErrThrottled before any row is read;
// refusals are tallied per cause in Counts.
type Server struct {
	// Store is the store the serving node journals to: its runtime registers
	// there while it runs (store.Store.SetRuntime) and, as the Source,
	// streams each delta; without it, a delta the early answer does not
	// settle is refused.
	Store *store.Store
	// Watermarks, if non-nil, is the server's own live vector (a node's
	// chain heads, Vector): a delta request whose horizon it does not exceed
	// (Lag) is answered done(0) without asking the source. A nil field or
	// slice — no runtime yet, unlike an empty vector — sends every request
	// to the source. Called on the transport's goroutines.
	Watermarks func() []Watermark
	// Every enables the per-peer token bucket: a peer accrues one
	// request token per Every elapsed, holding at most Burst. 0 disables
	// rate limiting (the in-flight cap still applies).
	Every time.Duration
	// Burst is the token bucket depth (default 4 when Every is set). A
	// freshly seen peer starts with a full bucket, so a legitimate
	// recovery's initial attempt-plus-retries are never throttled.
	Burst int
	// Clock supplies the bucket's time base (default: wall clock from
	// first use). Simulations inject their virtual clock.
	Clock func() time.Duration
	// Signer, if non-nil, serves the snapshot tier: the head of Store
	// (store.Store.Head), while a runtime is registered there, with its
	// checkpoint's (slot, root) signed by Signer (see snapshot.go). nil — or
	// a head without a checkpoint — answers meta queries with "no snapshot"
	// and fails chunk requests.
	Signer *crypto.Signer
	// Scores, if non-nil, receives a peerscore.Throttled signal each time
	// the admission policy refuses a request. It is counted, not acted on:
	// an honest node retrying after a broken stream trips it too.
	Scores *peerscore.Scorer

	mu       sync.Mutex
	peers    map[types.ServerID]*peerState
	drops    metrics.Metrics // over Families
	clockRef func() time.Duration
}

// peerState is one requester's admission bookkeeping.
type peerState struct {
	inFlight int
	tokens   float64
	last     time.Duration
}

var _ transport.Handler = (*Server)(nil)

// Counts returns the server's counters, read over Families (nil for a nil
// server: a node without a store serves no sync channel).
func (s *Server) Counts() *metrics.Metrics {
	if s == nil {
		return nil
	}
	return &s.drops
}

// now reads the configured clock, defaulting to a wall clock anchored at
// first use.
func (s *Server) now() time.Duration {
	if s.Clock != nil {
		return s.Clock()
	}
	if s.clockRef == nil {
		start := time.Now()
		s.clockRef = func() time.Duration { return time.Since(start) }
	}
	return s.clockRef()
}

// admit applies the admission policy for one request from peer,
// reserving an in-flight slot on success. The caller must release() it.
func (s *Server) admit(from types.ServerID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.peers == nil {
		s.peers = make(map[types.ServerID]*peerState)
	}
	p := s.peers[from]
	if p == nil {
		p = &peerState{}
		if s.Every > 0 {
			p.tokens = float64(s.burst())
			p.last = s.now()
		}
		s.peers[from] = p
	}
	if p.inFlight >= maxInFlightPerPeer {
		s.drops.Add(DropInFlight, 1)
		return false
	}
	if s.Every > 0 {
		now := s.now()
		p.tokens += float64(now-p.last) / float64(s.Every)
		p.last = now
		if burst := float64(s.burst()); p.tokens > burst {
			p.tokens = burst
		}
		if p.tokens < 1 {
			s.drops.Add(DropRate, 1)
			return false
		}
		p.tokens--
	}
	p.inFlight++
	return true
}

// release returns an in-flight slot.
func (s *Server) release(from types.ServerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.peers[from]; p != nil && p.inFlight > 0 {
		p.inFlight--
	}
}

// burst returns the configured bucket depth.
func (s *Server) burst() int {
	if s.Burst > 0 {
		return s.Burst
	}
	return 4
}

// ServeCall implements transport.Handler: admit the request, then
// dispatch on its kind. A delta request is compared with the live vector
// first: a requester that lacks nothing costs no read and no turn of the
// node, and gets the empty stream, done(0); otherwise the node streams every
// row its horizon does not cover, closed by a done summary.
func (s *Server) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	if !s.admit(from) {
		// Refused before any decode or read: admission is the cheap gate
		// in front of the rows a stream reads.
		s.Scores.Penalize(from, peerscore.Throttled)
		st.Close(ErrThrottled)
		return
	}
	defer s.release(from)
	if len(req) == 1 && req[0] == reqSnapMeta {
		s.serveSnapMeta(st)
		return
	}
	if len(req) > 0 && req[0] == reqSnapChunks {
		s.serveSnapChunks(req, st)
		return
	}
	have, err := DecodeRequest(req)
	if err != nil {
		st.Close(err)
		return
	}
	next := make(map[types.ServerID]uint64, len(have))
	for _, wm := range have {
		next[wm.Builder] = wm.NextSeq
	}
	// The early answer: a requester the live vector is not ahead of has
	// nothing coming — the stream is empty, and the node is not asked.
	var live []Watermark
	if s.Watermarks != nil {
		live = s.Watermarks()
	}
	var total uint64
	if live == nil || Lag(next, live) > 0 {
		var src Source
		if s.Store != nil {
			src, _ = s.Store.Runtime().(Source)
		}
		if src == nil {
			s.drops.Add(DropStarting, 1)
			st.Close(ErrNotServing)
			return
		}
		// Compared, and now the forked builders' entries go: no prefix of a
		// chain the requester holds two of is skipped.
		for _, wm := range have {
			if wm.Forked {
				delete(next, wm.Builder)
			}
		}
		if err := src.Stream(next, ChunkBytes, func(blocks []*block.Block) error {
			total += uint64(len(blocks))
			return st.Send(EncodeBatchFrame(blocks))
		}); err != nil {
			st.Close(fmt.Errorf("syncsvc: serve rows: %w", err)) // a lost stream drops it
			return
		}
	}
	if err := st.Send(EncodeDoneFrame(total)); err != nil {
		return
	}
	st.Close(nil)
}

// ErrBadStream reports that the serving peer sent something no correct
// server sends: an undecodable frame or block, more blocks than the cap, a
// done count that disagrees with the stream, or — reported by the absorbing
// node — a block the live DAG refuses. A stream that merely ends early is
// not one (link death looks the same); callers charge the peer for this.
var ErrBadStream = errors.New("syncsvc: peer served a bad stream")

// settled is what every client sink of this package shares: the call's
// first error, its exactly-once settlement, and the ways to wait for it.
// The embedding sink keeps its own payload fields under mu.
type settled struct {
	mu     sync.Mutex
	err    error
	done   bool
	notify chan struct{}
	// then, if non-nil, runs once after settlement, outside the lock, on
	// the goroutine that settled the call.
	then func()
}

func newSettled(then func()) settled {
	return settled{notify: make(chan struct{}), then: then}
}

// frame runs consume on one response frame under the lock — unless the
// call already failed or settled, in which case the rest of the stream
// drains silently. consume's error becomes the call's.
func (s *settled) frame(consume func() error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done || s.err != nil {
		return
	}
	s.err = consume()
}

// settle records the terminal state, once: a frame error wins, then the
// transport's, then complete's verdict on a stream the transport closed
// cleanly (was the protocol's own terminator there?).
func (s *settled) settle(err error, complete func() error) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	if s.err == nil {
		s.err = normalizeRemoteErr(err)
	}
	if s.err == nil {
		s.err = complete()
	}
	s.done = true
	close(s.notify)
	s.mu.Unlock()
	if s.then != nil {
		s.then()
	}
}

// Done reports whether the call has terminated (cleanly or not) — the
// condition simulator-driven clients run the network until.
func (s *settled) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Wait blocks until the call terminates or the timeout passes, reporting
// false on timeout — for real-transport clients.
func (s *settled) Wait(timeout time.Duration) bool {
	select {
	case <-s.notify:
		return true
	case <-time.After(timeout):
		return false
	}
}

// normalizeRemoteErr re-sentinels errors that crossed a transport as
// text: tcpnet conveys a handler's Close error to the caller as a string
// frame, so errors.Is(err, ErrThrottled) and errors.Is(err, ErrNotServing)
// — the signals to try another peer, charging nobody — must survive the
// round trip.
func normalizeRemoteErr(err error) error {
	for _, sentinel := range []error{ErrThrottled, ErrNotServing} {
		switch {
		case err == nil || errors.Is(err, sentinel):
			return err
		case strings.Contains(err.Error(), sentinel.Error()):
			return fmt.Errorf("%w (remote)", sentinel)
		}
	}
	return err
}

// Pull is the client end of one delta stream: a transport.CallSink that
// decodes the frames, checks every block's builder and signature against
// the roster (one block.VerifyBatch per frame), enforces the block cap and
// holds the server to its done count. It keeps no DAG: whether a block's
// predecessors are present and its parent rule holds is decided once, by
// the DAG that will hold it, when the node absorbs the result
// (core.Server.AbsorbVerified). Safe for concurrent sink invocation and
// inspection (tcpnet drives it from a connection goroutine).
type Pull struct {
	settled
	roster   *crypto.Roster
	req      []byte
	got      []*block.Block
	limit    int
	streamed uint64 // blocks decoded off the stream
	claimed  uint64 // server's frameDone count
	sawDone  bool   // saw a frameDone frame
}

var _ transport.CallSink = (*Pull)(nil)

// NewPull prepares a pull for a requester holding what the horizon have
// states (Held; nil for a fresh replica: ask for everything).
// maxBlocks caps the blocks accepted from the stream; 0 means
// DefaultMaxBlocks. onDone, if non-nil, runs exactly once when the stream
// settles — on the transport's sink goroutine (or the simulator's event
// loop), so it must be safe there or hand off to the owning loop, as the
// node runtime does.
func NewPull(roster *crypto.Roster, have []Watermark, maxBlocks int, onDone func()) *Pull {
	if maxBlocks <= 0 {
		maxBlocks = DefaultMaxBlocks
	}
	return &Pull{
		settled: newSettled(onDone),
		roster:  roster,
		req:     EncodeRequest(have),
		limit:   maxBlocks,
	}
}

// Request returns the encoded delta request for the requester's horizon.
func (p *Pull) Request() []byte { return p.req }

// Streamed returns how many blocks the stream has carried so far, accepted
// (Result) or not: what the serving peer held that the request did not
// cover, by that peer's account.
func (p *Pull) Streamed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.streamed
}

// OnFrame implements transport.CallSink: decode and check one frame.
func (p *Pull) OnFrame(frame []byte) {
	p.frame(func() error { return p.consume(frame) })
}

// consume processes one stream frame under the lock.
func (p *Pull) consume(frame []byte) error {
	r := wire.NewReader(frame)
	switch r.Byte() {
	case frameBlocks:
		// Decode the whole frame, pay its Ed25519 checks in one parallel
		// batch, then accept in stream order up to the first block that
		// fails: the accepted prefix is genuine whatever comes after it.
		n := r.Count(maxBatch)
		blocks := make([]*block.Block, 0, n)
		var decodeErr error
		for i := 0; i < n; i++ {
			// The batch frame is shared by its blocks and not ours to keep:
			// each block's frame is copied out once and its fields view that.
			enc := r.VarBytes()
			if r.Err() != nil {
				break
			}
			b, err := block.Decode(enc)
			if err != nil {
				// The decoded prefix is still accepted below before the
				// error surfaces.
				decodeErr = fmt.Errorf("%w: stream block: %v", ErrBadStream, err)
				break
			}
			blocks = append(blocks, b)
		}
		p.streamed += uint64(len(blocks))
		over := len(p.got)+len(blocks) > p.limit
		if over {
			blocks = blocks[:p.limit-len(p.got)]
		}
		for i, ok := range block.VerifyBatch(p.roster, blocks, 0) {
			if ok {
				continue
			}
			p.got = append(p.got, blocks[:i]...)
			cause := dag.ErrBadSignature
			if !p.roster.Contains(blocks[i].Builder) {
				cause = dag.ErrBuilderUnknown
			}
			return fmt.Errorf("syncsvc: stream block %v rejected: %w", blocks[i].Ref(), cause)
		}
		p.got = append(p.got, blocks...)
		if over {
			return fmt.Errorf("%w: stream exceeds %d blocks", ErrBadStream, p.limit)
		}
		if decodeErr != nil {
			return decodeErr
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("%w: batch frame: %v", ErrBadStream, err)
		}
		return nil
	case frameDone:
		p.claimed = r.Uvarint()
		if err := r.Close(); err != nil {
			return fmt.Errorf("%w: done frame: %v", ErrBadStream, err)
		}
		p.sawDone = true
		return nil
	default:
		return fmt.Errorf("%w: unknown stream frame", ErrBadStream)
	}
}

// OnDone implements transport.CallSink.
func (p *Pull) OnDone(err error) {
	p.settle(err, func() error {
		if !p.sawDone {
			// A clean transport close without the protocol's own done
			// frame means the server (or something in between) truncated
			// the stream.
			return errors.New("syncsvc: stream ended without done frame")
		}
		if p.claimed != p.streamed {
			// The summary exists so a quietly truncating server is caught:
			// claiming more (or fewer) blocks than it actually streamed is
			// not a clean sync, and the caller should try another peer.
			return fmt.Errorf("%w: server claimed %d blocks, streamed %d", ErrBadStream, p.claimed, p.streamed)
		}
		return nil
	})
}

// Result returns the blocks accepted so far, in stream order, and the
// stream's terminal error, if any. Every returned block was built by a
// roster member and carries that member's signature whatever the error;
// nothing else about it has been checked.
func (p *Pull) Result() ([]*block.Block, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.got, p.err
}

// FetchConfig says whom a node pulls from and how: node.Config.CatchUp, and
// what FetchSnapshot takes.
type FetchConfig struct {
	// Transport issues the calls. Required.
	Transport transport.Transport
	// Roster checks every streamed block's builder and signature (default:
	// the node's server's roster). FetchSnapshot requires it: it validates
	// commit signatures and sizes the certificate threshold (f+1 signers).
	Roster *crypto.Roster
	// Peers are the serving peers: startup catch-up tries them in order
	// until one stream ends clean, the live follower rotates over them, and
	// a snapshot certificate needs f+1 of them to answer with the same
	// (slot, root). Required, at least one.
	Peers []types.ServerID
	// Timeout bounds one startup attempt, or one snapshot call (default 30s).
	Timeout time.Duration
}
