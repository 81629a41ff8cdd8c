// Package tcpnet is a real TCP implementation of transport.Transport.
//
// One persistent connection per peer direction carries the fire-and-forget
// channels (Assumption 1 — reliable delivery between correct servers —
// via persistent per-peer queues, automatic reconnection with backoff, and
// at-least-once retransmission); each transport.Call opens its own
// short-lived connection, so a stalled bulk stream can never head-of-line
// block gossip. Duplicates that arise from retransmission are harmless:
// the gossip layer deduplicates blocks by reference and FWD requests are
// idempotent.
//
// Wire format: after connecting, a peer sends one identification frame
// carrying the transport protocol version, its ServerID, the connection
// kind (stream or call, the latter with its channel) and a fresh challenge
// nonce. A version mismatch rejects the connection at the handshake —
// nothing after the identification frame is ever parsed across versions.
// Stream connections then carry length-prefixed frames (package wire),
// each prefixed with its channel byte; call connections carry one request
// frame, then response frames tagged data/end/error. All frames respect
// wire.MaxFrame, so bulk payloads are chunked by the caller (package
// syncsvc streams block batches well under the limit).
//
// Every connection is authenticated (Config.Auth, which package roster
// provides): the identification frame opens a mutual challenge–response.
// The listener answers with its own identity, a fresh nonce, and a
// signature over the dialer's nonce (bound to the protocol version,
// connection kind, channel, and both identities via
// transport.AuthContext); the dialer verifies it against the roster entry
// for the peer it dialed, then returns its own proof over the listener's
// nonce. Only after both proofs verify does any payload byte get parsed:
// an unproven, misattributed, or non-roster connection is refused at the
// handshake and counted in Rejections/AuthRejections.
package tcpnet

import (
	"bufio"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Connection kinds declared in the identification frame.
const (
	kindStream byte = 1
	kindCall   byte = 2
)

// Frame tags: data/end/error on call connections, challenge/proof during
// the authenticated handshake (both kinds).
const (
	tagData  byte = 1
	tagEnd   byte = 2
	tagError byte = 3
	// tagAuthChallenge is the listener's handshake answer: its identity,
	// its fresh nonce, and its proof over the dialer's nonce.
	tagAuthChallenge byte = 4
	// tagAuthProof is the dialer's closing handshake frame: its proof
	// over the listener's nonce.
	tagAuthProof byte = 5
)

// maxHandshakeFrame caps the frames read before a connection has
// authenticated (identification, challenge, proof, or a refusal: tens of
// bytes each), so a stranger's header can make this process allocate a
// kilobyte, not wire.MaxFrame.
const maxHandshakeFrame = 1 << 10

// The transport's fixed limits.
const (
	// dialBackoff is the first wait after a failed dial or handshake; it
	// doubles up to maxBackoff, so a peer that is down costs a dial every
	// two seconds, and one that restarts is reached within a few tens of
	// milliseconds.
	dialBackoff = 50 * time.Millisecond
	maxBackoff  = 2 * time.Second
	// queueSize bounds each peer's outbound queue, in frames; sends beyond
	// it block, applying backpressure. A bound, not an allocation: a
	// queue's memory is its backlog's, released as it drains.
	queueSize = 4096
	// callTimeout bounds a call's dial+handshake and each subsequent frame
	// read and write: a peer that stops mid-stream surfaces
	// transport.ErrStreamLost instead of wedging either end.
	callTimeout = 10 * time.Second
	// handshakeTimeout bounds the identification/authentication exchange
	// on every connection, inbound and outbound: a peer that connects and
	// stalls mid-handshake cannot pin a goroutine and its descriptor until
	// shutdown.
	handshakeTimeout = 10 * time.Second
)

// Config parameterizes a TCP transport.
type Config struct {
	// Self is this server's identity. Required; Auth.Self() must equal it.
	Self types.ServerID
	// ListenAddr is the local address to accept peers on (e.g.
	// "127.0.0.1:7001"). Required.
	ListenAddr string
	// Endpoints routes inbound one-way payloads by channel. At least one
	// channel must be served. Channels without an endpoint drop.
	Endpoints map[transport.Channel]transport.Endpoint
	// Handlers serves inbound calls by channel. Optional. Handlers run
	// on per-connection goroutines; see transport.Handler.
	Handlers map[transport.Channel]transport.Handler
	// Auth runs every connection's (inbound and outbound) mutual
	// challenge–response handshake: each side proves possession of the
	// private key behind its claimed ServerID by signing the peer's fresh
	// nonce, bound to the protocol version and channel. Unproven,
	// misattributed, and non-roster peers are refused before any payload
	// is parsed. Required.
	Auth transport.Authenticator
	// Scores, if non-nil, is consulted on every connection and payload:
	// traffic to and from a banned peer is refused (sends dropped, calls
	// fail with transport.ErrUnreachable, inbound connections closed
	// after the handshake has proven who they are), and a peer we dialled
	// at its roster address that answers and cannot prove itself is charged
	// a peerscore.AuthFailure (one that closes without answering, or
	// refuses us, is not). An inbound connection that fails the
	// handshake charges nobody: its claimed identity is unproven. A nil
	// scorer bans and charges nothing.
	Scores *peerscore.Scorer

	// version overrides the advertised protocol version; tests use it to
	// exercise the mismatch rejection. Zero means transport.Version.
	version uint16
}

// Transport is a running TCP transport. Peers are attached with Connect
// after Listen, once their addresses are known.
type Transport struct {
	cfg      Config
	listener net.Listener
	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn // accepted connections, closed on shutdown
	peers map[types.ServerID]*peer

	counts metrics.Metrics // over Families
}

// Families declares what a Transport counts (Transport.Counts).
var Families metrics.Table

var (
	// Inbound connections refused at the handshake: version mismatch,
	// malformed identification frame, or failed authentication.
	Rejections = Families.Counter("", "tcpnet_rejections_total", "Inbound connections rejected before payload parse (all causes).")
	// The subset where the peer failed the challenge–response: an unproven
	// claimed identity, a non-roster member, a stale or malformed proof, or
	// no attempt at authentication at all.
	AuthRejections = Families.Counter("", "tcpnet_auth_rejections_total", "Inbound connections rejected by the challenge-response handshake.")
	// Outbound sends and calls toward a peer the configured scorer has
	// banned, plus inbound connections identified as one.
	BanRejections = Families.Counter("", "tcpnet_ban_rejections_total", "Connections refused because the proven peer is banned.")
	// The dialer-side mirror of AuthRejections: the listener could not prove
	// the identity we dialed (an impostor squatting on a member's address).
	AuthFailures = Families.Counter("", "tcpnet_auth_failures_total", "Outbound handshakes that failed against a peer.")
	// Delta pulls (follower polls, bulk catch-up), snapshot calls — successful or not — and
	// the inbound calls dispatched to a channel handler.
	CallsOpened = Families.Counter("", "tcpnet_calls_opened_total", "Request/response calls opened to peers.")
	CallsServed = Families.Counter("", "tcpnet_calls_served_total", "Request/response calls served for peers.")
)

var _ transport.Transport = (*Transport)(nil)

// peer is one outbound connection manager and its send queue: a FIFO whose
// memory follows the backlog. Send takes a slot, blocking at the bound, and
// appends; the sender reads the backlog where it lies, writes it out, and
// only then pops it and gives the slots back.
type peer struct {
	id   types.ServerID
	addr string

	mu     sync.Mutex
	frames []frame       // the backlog, oldest first
	slots  chan struct{} // a token a queued frame, queueSize at most (of size zero: no buffer)
	ready  chan struct{} // capacity 1: a frame was queued
}

// frame is one queued payload and its channel. The payload is the caller's
// slice, not a copy (transport.Transport.Send: read-only from the call on).
type frame struct {
	ch      transport.Channel
	payload []byte
}

// pop drops the n oldest frames — written, or discarded — with their array:
// what queued up behind them, mostly nothing, moves to one of its own.
func (p *peer) pop(n int) {
	p.mu.Lock()
	p.frames = append([]frame(nil), p.frames[n:]...)
	p.mu.Unlock()
	for ; n > 0; n-- {
		<-p.slots
	}
}

// Listen starts the transport: it binds the listen address and starts the
// accept loop. Attach peers with Connect.
func Listen(cfg Config) (*Transport, error) {
	switch {
	case cfg.ListenAddr == "":
		return nil, errors.New("tcpnet: config needs a ListenAddr")
	case len(cfg.Endpoints) == 0 && len(cfg.Handlers) == 0:
		return nil, errors.New("tcpnet: config needs at least one Endpoint or Handler")
	}
	for ch := range cfg.Endpoints {
		if !ch.Valid() {
			return nil, fmt.Errorf("tcpnet: invalid endpoint channel %v", ch)
		}
	}
	for ch := range cfg.Handlers {
		if !ch.Valid() {
			return nil, fmt.Errorf("tcpnet: invalid handler channel %v", ch)
		}
	}
	switch {
	case cfg.Auth == nil:
		return nil, errors.New("tcpnet: config needs an Auth")
	case cfg.Auth.Self() != cfg.Self:
		return nil, fmt.Errorf("tcpnet: authenticator proves %v, config is %v", cfg.Auth.Self(), cfg.Self)
	}
	if cfg.version == 0 {
		cfg.version = transport.Version
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.ListenAddr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Transport{
		cfg:      cfg,
		listener: ln,
		ctx:      ctx,
		cancel:   cancel,
		peers:    make(map[types.ServerID]*peer),
	}
	t.wg.Add(1)
	go t.runAcceptLoop()
	return t, nil
}

// Connect attaches a peer's address and starts its sender goroutine.
// Calling Connect twice for the same peer is an error.
func (t *Transport) Connect(id types.ServerID, addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.peers[id]; dup {
		return fmt.Errorf("tcpnet: peer %v already connected", id)
	}
	p := &peer{id: id, addr: addr, slots: make(chan struct{}, queueSize), ready: make(chan struct{}, 1)}
	t.peers[id] = p
	t.wg.Add(1)
	go t.runSender(p)
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *Transport) Addr() string { return t.listener.Addr().String() }

// Self implements transport.Transport.
func (t *Transport) Self() types.ServerID { return t.cfg.Self }

// Counts returns the transport's counters, read over Families.
func (t *Transport) Counts() *metrics.Metrics { return &t.counts }

// Send implements transport.Transport: enqueue the payload, as it is, for
// the peer's sender goroutine, which frames it (length, channel byte) on the
// way out; it blocks while that queue is at queueSize. Unknown
// destinations are dropped (they cannot be correct servers: the peer table
// covers the roster), as is a payload that fits no frame.
func (t *Transport) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	t.mu.Lock()
	p, ok := t.peers[to]
	t.mu.Unlock()
	if !ok || !ch.Valid() || len(payload) >= wire.MaxFrame {
		return
	}
	if t.cfg.Scores.Banned(to) {
		t.counts.Add(BanRejections, 1)
		return
	}
	select {
	case p.slots <- struct{}{}:
	case <-t.ctx.Done():
		return
	}
	p.mu.Lock()
	p.frames = append(p.frames, frame{ch: ch, payload: payload})
	p.mu.Unlock()
	select {
	case p.ready <- struct{}{}:
	default: // the sender has not looked since the last one
	}
}

// Call implements transport.Transport: a dedicated connection per call.
// The dial, handshake, request write, and response reads run on their own
// goroutine; sink callbacks are invoked from it. Failures surface through
// sink.OnDone — the explicit failure/retry semantics the sync service
// needs — never through silent loss.
func (t *Transport) Call(to types.ServerID, ch transport.Channel, req []byte, sink transport.CallSink) func() {
	t.mu.Lock()
	p, ok := t.peers[to]
	t.mu.Unlock()
	t.counts.Add(CallsOpened, 1)
	ctx, cancel := context.WithCancel(t.ctx)
	if ok && t.cfg.Scores.Banned(to) {
		t.counts.Add(BanRejections, 1)
		ok = false
	}
	if !ok || !ch.Valid() {
		cancel()
		// Tracked like every other sink invocation, so Close cannot
		// return while an OnDone is still pending.
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			sink.OnDone(transport.ErrUnreachable)
		}()
		return func() {}
	}
	reqCopy := append([]byte(nil), req...)
	t.wg.Add(1)
	go t.runCall(ctx, cancel, p.id, p.addr, ch, reqCopy, sink)
	return cancel
}

// runCall drives one call connection to completion.
func (t *Transport) runCall(ctx context.Context, cancel context.CancelFunc, to types.ServerID, addr string, ch transport.Channel, req []byte, sink transport.CallSink) {
	defer t.wg.Done()
	defer cancel()
	d := net.Dialer{Timeout: callTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		sink.OnDone(fmt.Errorf("%w: %v", transport.ErrUnreachable, err))
		return
	}
	defer func() { _ = conn.Close() }()
	// A canceled context must unwedge blocked reads/writes.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	defer stop()

	if err := t.handshake(conn, to, kindCall, ch); err != nil {
		t.failAuth(to, err)
		switch {
		case errors.Is(err, transport.ErrAuthFailed),
			errors.Is(err, transport.ErrVersionMismatch),
			errors.Is(err, transport.ErrNoHandler):
			sink.OnDone(err)
		default:
			sink.OnDone(fmt.Errorf("%w: handshake: %v", transport.ErrUnreachable, err))
		}
		return
	}
	deadline := func() { _ = conn.SetDeadline(time.Now().Add(callTimeout)) }
	deadline()
	if err := wire.WriteFrame(conn, req); err != nil {
		// The dialer's proof is checked after handshake returns here: a
		// listener that refuses it answers with a tagged error and
		// closes, and a request written into the closed connection fails
		// with EPIPE. The verdict was sent before the close and is
		// waiting in the receive queue; it is the cause, the write
		// error only its symptom.
		if frame, rerr := wire.ReadFrame(conn); rerr == nil && len(frame) > 0 && frame[0] == tagError {
			sink.OnDone(decodeCallError(frame[1:]))
			return
		}
		sink.OnDone(fmt.Errorf("%w: request: %v", transport.ErrStreamLost, err))
		return
	}
	responses := bufio.NewReader(conn)
	for {
		deadline()
		frame, err := wire.ReadFrame(responses)
		if err != nil {
			// EOF before an end/error tag: the peer died mid-stream
			// or rejected the handshake (version mismatch closes the
			// connection without a frame).
			sink.OnDone(fmt.Errorf("%w: %v", transport.ErrStreamLost, err))
			return
		}
		if len(frame) == 0 {
			sink.OnDone(fmt.Errorf("%w: empty response frame", transport.ErrStreamLost))
			return
		}
		tag, body := frame[0], frame[1:]
		switch tag {
		case tagData:
			sink.OnFrame(body)
		case tagEnd:
			sink.OnDone(nil)
			return
		case tagError:
			sink.OnDone(decodeCallError(body))
			return
		default:
			sink.OnDone(fmt.Errorf("%w: unknown response tag %d", transport.ErrStreamLost, tag))
			return
		}
	}
}

// errUnproven is the authentication failure of a listener that answered
// the hello and could not prove the identity dialled (wrong identity, bad
// proof, malformed challenge) — the only outbound failure charged to that
// identity. One that closes without answering (it restarted) or refuses us
// (it has not learned a rotated roster yet) is not accused.
var errUnproven = fmt.Errorf("%w: listener unproven", transport.ErrAuthFailed)

// decodeCallError maps a remote error frame back onto the sentinel errors
// of package transport where possible.
func decodeCallError(body []byte) error {
	msg := string(body)
	switch msg {
	case transport.ErrNoHandler.Error():
		return transport.ErrNoHandler
	case transport.ErrVersionMismatch.Error():
		return transport.ErrVersionMismatch
	case transport.ErrAuthFailed.Error():
		return transport.ErrAuthFailed
	}
	return fmt.Errorf("transport: remote error: %s", msg)
}

// Close shuts down the transport and waits for all goroutines.
func (t *Transport) Close() error {
	t.cancel()
	err := t.listener.Close()
	t.mu.Lock()
	for _, c := range t.conns {
		_ = c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

// runAcceptLoop accepts inbound connections and spawns readers.
func (t *Transport) runAcceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			// Listener closed during shutdown, or a transient
			// accept failure; either way, stop on shutdown.
			select {
			case <-t.ctx.Done():
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.track(conn)
		t.wg.Add(1)
		go t.runReader(conn)
	}
}

func (t *Transport) track(conn net.Conn) {
	t.mu.Lock()
	t.conns = append(t.conns, conn)
	t.mu.Unlock()
}

// failAuth accounts for a failed outbound handshake to peer. Only genuine
// authentication failures count — an ordinary reset mid-identification is
// reconnect noise — and only a listener that answered and could not prove
// it is peer (errUnproven) is charged.
func (t *Transport) failAuth(peer types.ServerID, err error) {
	if !errors.Is(err, transport.ErrAuthFailed) {
		return
	}
	t.counts.Add(AuthFailures, 1)
	if errors.Is(err, errUnproven) {
		t.cfg.Scores.Penalize(peer, peerscore.AuthFailure)
	}
}

// newNonce draws a fresh handshake challenge.
func newNonce() ([]byte, error) {
	nonce := make([]byte, transport.NonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("tcpnet: handshake nonce: %w", err)
	}
	return nonce, nil
}

// handshake runs the dialer side of connection setup: write the
// identification frame and complete the mutual challenge–response before
// any payload crosses the connection. peer is the identity this transport
// dialed; the listener must prove exactly that identity or the connection
// is abandoned. The whole exchange runs under handshakeTimeout; the
// deadline is cleared on success.
//
// Errors wrapping transport.ErrAuthFailed, ErrVersionMismatch, or
// ErrNoHandler carry the listener's explicit refusal (call connections
// only — stream listeners refuse by closing); anything else is a
// transport-level failure the caller treats like an unreachable peer.
func (t *Transport) handshake(conn net.Conn, peer types.ServerID, kind byte, ch transport.Channel) error {
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	hello := wire.NewWriter(8 + transport.NonceSize)
	hello.Uint16(t.cfg.version)
	hello.Uint16(uint16(t.cfg.Self))
	hello.Byte(kind)
	if kind == kindCall {
		hello.Byte(byte(ch))
	}
	hello.VarBytes(nonce)
	if err := wire.WriteFrame(conn, hello.Bytes()); err != nil {
		return fmt.Errorf("identification: %w", err)
	}

	frame, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		// The listener closed without answering: it refused us (version
		// mismatch or failed proof) or died.
		return fmt.Errorf("%w: no challenge answer: %v", transport.ErrAuthFailed, err)
	}
	if len(frame) > 0 && frame[0] == tagError {
		// Call listeners refuse with an explicit tagged error.
		return decodeCallError(frame[1:])
	}
	r := wire.NewReader(frame)
	if r.Byte() != tagAuthChallenge {
		return fmt.Errorf("%w: unexpected frame during handshake", errUnproven)
	}
	peerID := types.ServerID(r.Uint16())
	peerNonce := r.VarBytes()
	proof := r.VarBytes()
	if err := r.Close(); err != nil {
		return fmt.Errorf("%w: malformed challenge: %v", errUnproven, err)
	}
	if peerID != peer {
		return fmt.Errorf("%w: listener identifies as %v, dialed %v", errUnproven, peerID, peer)
	}
	if len(peerNonce) != transport.NonceSize {
		return fmt.Errorf("%w: challenge nonce of %d bytes", errUnproven, len(peerNonce))
	}
	ctx := transport.AuthContext(t.cfg.version, kind, ch, nonce, peerID, t.cfg.Self)
	if !t.cfg.Auth.Verify(peerID, ctx, proof) {
		return fmt.Errorf("%w: listener could not prove it is %v", errUnproven, peerID)
	}
	w := wire.NewWriter(80)
	w.Byte(tagAuthProof)
	w.VarBytes(t.cfg.Auth.Prove(transport.AuthContext(t.cfg.version, kind, ch, peerNonce, t.cfg.Self, peerID)))
	if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
		return fmt.Errorf("%w: proof write: %v", transport.ErrAuthFailed, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return nil
}

// serveHandshake runs the listener side of authentication after the
// identification frame: issue a challenge carrying our own proof over the
// dialer's nonce, then demand a verifying proof over ours.
func (t *Transport) serveHandshake(conn net.Conn, from types.ServerID, kind byte, ch transport.Channel, dialerNonce []byte) error {
	if len(dialerNonce) != transport.NonceSize {
		return fmt.Errorf("tcpnet: peer %v sent a %d-byte nonce", from, len(dialerNonce))
	}
	if !t.cfg.Auth.Member(from) {
		return fmt.Errorf("tcpnet: peer claims non-roster identity %v", from)
	}
	nonce, err := newNonce()
	if err != nil {
		return err
	}
	w := wire.NewWriter(128)
	w.Byte(tagAuthChallenge)
	w.Uint16(uint16(t.cfg.Self))
	w.VarBytes(nonce)
	w.VarBytes(t.cfg.Auth.Prove(transport.AuthContext(t.cfg.version, kind, ch, dialerNonce, t.cfg.Self, from)))
	if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
		return fmt.Errorf("tcpnet: challenge write: %w", err)
	}
	frame, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		return fmt.Errorf("tcpnet: no proof answer: %w", err)
	}
	r := wire.NewReader(frame)
	if r.Byte() != tagAuthProof {
		return errors.New("tcpnet: expected proof frame")
	}
	proof := r.VarBytes()
	if err := r.Close(); err != nil {
		return fmt.Errorf("tcpnet: malformed proof: %w", err)
	}
	if !t.cfg.Auth.Verify(from, transport.AuthContext(t.cfg.version, kind, ch, nonce, from, t.cfg.Self), proof) {
		return fmt.Errorf("tcpnet: peer could not prove it is %v", from)
	}
	return nil
}

// runReader consumes one inbound connection: the handshake (admit), then —
// depending on the kind — a stream of channel-tagged payloads or a single
// call.
func (t *Transport) runReader(conn net.Conn) {
	defer t.wg.Done()
	defer func() { _ = conn.Close() }()
	from, kind, ch, ok := t.admit(conn)
	if !ok {
		return
	}
	switch kind {
	case kindStream:
		t.serveStream(conn, from)
	case kindCall:
		t.serveCall(conn, from, ch)
	}
}

// admit runs the listener side of connection setup: the identification
// frame (version, peer, kind, nonce), the challenge–response, and the ban
// gate. No payload byte is parsed before it reports ok; a refusal is
// counted, and a call connection is told why.
func (t *Transport) admit(conn net.Conn) (from types.ServerID, kind byte, ch transport.Channel, ok bool) {
	// The whole handshake runs under a deadline: a peer that connects
	// and stalls cannot pin this goroutine until shutdown.
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hello, err := wire.ReadFrameLimit(conn, maxHandshakeFrame)
	if err != nil {
		if errors.Is(err, wire.ErrTooLarge) {
			t.counts.Add(Rejections, 1)
		}
		return 0, 0, 0, false
	}
	r := wire.NewReader(hello)
	version := r.Uint16()
	if r.Err() != nil {
		t.counts.Add(Rejections, 1)
		return 0, 0, 0, false
	}
	if version != t.cfg.version {
		// Incompatible peer: refuse at the handshake, before any
		// payload can be misparsed. The version is checked before the
		// rest of the frame is validated — a future version may extend
		// the identification layout, and it must still be told "wrong
		// version", not dropped as malformed — and before any
		// authentication exchange: there is no point proving identities
		// over a connection that cannot proceed, and the mismatch error
		// must win over ErrAuthFailed so operators fix the right thing.
		// Call connections get an explicit error frame (the client is
		// reading, and its hello prefix through the kind byte is
		// stable); stream senders observe the close and back off into
		// their reconnect loop.
		t.counts.Add(Rejections, 1)
		_ = r.Uint16() // self
		if r.Byte() == kindCall && r.Err() == nil {
			t.writeCallError(conn, transport.ErrVersionMismatch)
		}
		return 0, 0, 0, false
	}
	from = types.ServerID(r.Uint16())
	kind = r.Byte()
	if kind == kindCall {
		ch = transport.Channel(r.Byte())
	}
	dialerNonce := r.VarBytes()
	if r.Close() != nil || (kind != kindStream && kind != kindCall) {
		t.counts.Add(Rejections, 1)
		return 0, 0, 0, false
	}
	if err := t.serveHandshake(conn, from, kind, ch, dialerNonce); err != nil {
		// Counted, and nobody is charged: from is whatever the hello
		// claimed, and a charge a stranger can lay against a member of its
		// choosing would falsify that member's signal counter.
		t.counts.Add(Rejections, 1)
		t.counts.Add(AuthRejections, 1)
		if kind == kindCall {
			// The call client is in a read loop; tell it explicitly so
			// it fails fast instead of timing out.
			t.writeCallError(conn, transport.ErrAuthFailed)
		}
		return 0, 0, 0, false
	}
	if t.cfg.Scores.Banned(from) {
		// The peer proved who it is — and who it is is banned. Refuse
		// after the handshake so the verdict applies to the proven
		// identity, not a spoofable claim.
		t.counts.Add(BanRejections, 1)
		if kind == kindCall {
			t.writeCallError(conn, transport.ErrUnreachable)
		}
		return 0, 0, 0, false
	}
	_ = conn.SetDeadline(time.Time{})
	return from, kind, ch, true
}

// serveStream demultiplexes channel-tagged payload frames to the
// registered endpoints.
func (t *Transport) serveStream(conn net.Conn, from types.ServerID) {
	// The handshake read its frames byte-exactly, so nothing of the stream
	// was consumed before this reader exists.
	payloads := bufio.NewReader(conn)
	for {
		frame, err := wire.ReadFrame(payloads)
		if err != nil {
			return
		}
		select {
		case <-t.ctx.Done():
			return
		default:
		}
		if len(frame) == 0 {
			continue
		}
		ch := transport.Channel(frame[0])
		ep := t.cfg.Endpoints[ch]
		if ep == nil {
			continue // unknown or unserved channel: drop the payload
		}
		ep.Deliver(from, frame[1:])
	}
}

// serveCall reads the request frame and runs the channel's handler over
// the connection. callTimeout bounds the request read and every response
// write, so a client that connects and stalls (or stops reading while
// the stream backs up) cannot pin the handler goroutine and its file
// descriptor until transport shutdown.
func (t *Transport) serveCall(conn net.Conn, from types.ServerID, ch transport.Channel) {
	_ = conn.SetReadDeadline(time.Now().Add(callTimeout))
	req, err := wire.ReadFrame(conn)
	if err != nil {
		return
	}
	h := t.cfg.Handlers[ch]
	if h == nil {
		t.writeCallError(conn, transport.ErrNoHandler)
		return
	}
	t.counts.Add(CallsServed, 1)
	st := &connStream{conn: conn, ctx: t.ctx}
	h.ServeCall(from, req, st)
	// A handler that returns without closing leaves the caller waiting.
	// Close with an error on its behalf — never a clean end: only the
	// handler knows whether the stream was complete, and a truncated
	// stream must not masquerade as a finished one.
	st.Close(errors.New("tcpnet: handler returned without closing the stream"))
}

// writeCallError best-effort sends a tagged error frame.
func (t *Transport) writeCallError(conn net.Conn, err error) {
	_, _ = conn.Write(wire.AppendTagged(nil, tagError, []byte(err.Error())))
}

// connStream implements transport.ServerStream over one call connection.
type connStream struct {
	conn   net.Conn
	ctx    context.Context
	closed bool
	failed bool
}

var _ transport.ServerStream = (*connStream)(nil)

// Send implements transport.ServerStream.
func (s *connStream) Send(frame []byte) error {
	if s.closed {
		return errors.New("tcpnet: send on closed stream")
	}
	if s.failed {
		return transport.ErrStreamLost
	}
	select {
	case <-s.ctx.Done():
		s.failed = true
		return transport.ErrStreamLost
	default:
	}
	if len(frame) >= wire.MaxFrame {
		return fmt.Errorf("%w: stream frame of %d bytes", wire.ErrTooLarge, len(frame))
	}
	_ = s.conn.SetWriteDeadline(time.Now().Add(callTimeout))
	if _, err := s.conn.Write(wire.AppendTagged(nil, tagData, frame)); err != nil {
		s.failed = true
		return fmt.Errorf("%w: %v", transport.ErrStreamLost, err)
	}
	return nil
}

// Close implements transport.ServerStream.
func (s *connStream) Close(err error) {
	if s.closed {
		return
	}
	s.closed = true
	if s.failed {
		return
	}
	tag, msg := tagEnd, ""
	if err != nil {
		tag, msg = tagError, err.Error()
	}
	_, _ = s.conn.Write(wire.AppendTagged(nil, tag, []byte(msg)))
}

// runSender owns one peer's outbound stream connection: dial with backoff,
// identify and authenticate, then drain the queue. What is queued when the
// sender turns to it leaves in one write, a frame a payload, and is dequeued
// only after that write succeeded; on failure it is retransmitted, with what
// queued up behind it, on the next connection (at-least-once).
func (t *Transport) runSender(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	backoff := dialBackoff
	wait := func() bool {
		select {
		case <-t.ctx.Done():
			return false
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		return true
	}

	for {
		p.mu.Lock()
		backlog := p.frames // a view, this goroutine's until its next pop
		p.mu.Unlock()
		if len(backlog) == 0 {
			select {
			case <-t.ctx.Done():
				return
			case <-p.ready:
				continue
			}
		}
		if t.cfg.Scores.Banned(p.id) {
			// The peer was banned while payloads were queued (or a
			// retransmission was pending). Discard instead of dialing a
			// peer we would refuse to hear from anyway.
			t.counts.Add(BanRejections, int64(len(backlog)))
			p.pop(len(backlog))
			if conn != nil {
				_ = conn.Close()
				conn = nil
			}
			continue
		}
		if conn == nil {
			c, err := net.Dial("tcp", p.addr)
			if err != nil {
				if !wait() {
					return
				}
				continue
			}
			// Identify ourselves and mutually authenticate on the fresh
			// connection. A failed handshake
			// backs off like a failed dial: a listener that refuses us
			// — or an impostor that cannot prove it is p.id — must not
			// be hammered in a tight reconnect loop.
			if err := t.handshake(c, p.id, kindStream, 0); err != nil {
				t.failAuth(p.id, err)
				_ = c.Close()
				if !wait() {
					return
				}
				continue
			}
			conn = c
			backoff = dialBackoff
		}
		var out []byte // the backlog framed, a megabyte or a frame at a time
		sent := 0
		for ; sent < len(backlog) && len(out) < 1<<20; sent++ {
			out = wire.AppendTagged(out, byte(backlog[sent].ch), backlog[sent].payload)
		}
		if _, err := conn.Write(out); err != nil {
			_ = conn.Close()
			conn = nil
			continue // retransmit the backlog on the next connection
		}
		p.pop(sent)
	}
}
