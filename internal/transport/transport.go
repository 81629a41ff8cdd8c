package transport

import (
	"errors"
	"fmt"
	"sync"

	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Version is the transport protocol version this binary speaks. Peers
// exchange it during connection setup (tcpnet's identification frame) and
// refuse payload exchange on mismatch, so an incompatible envelope or
// channel layout can never be misparsed as protocol traffic.
//
// Version 2 extended the identification frame with the authentication
// flag and handshake nonce (see Authenticator); version 4 dropped the
// flag, since every connection authenticates, and refuses a version 3
// binary, which could still open an unauthenticated link.
//
// Version 3 changed no byte of any frame. It changed what a block's
// references mean: a reference includes its ancestry, so builders cite
// parent and tips and interpreters read the ancestry a block adds to its
// chain (packages gossip and interpret). A version 2 binary reads only the
// blocks cited by name; fed version 3 blocks it would validate every one of
// them and then interpret the same DAG differently — the one divergence the
// handshake can still prevent, so it is refused there like any other
// mismatch.
const Version uint16 = 4

// Channel identifies one logical stream of payloads multiplexed over a
// single peer link.
type Channel uint8

// The framework's channels. Values are wire-visible; never renumber.
const (
	// ChanGossip carries Algorithm 1 traffic: blocks and FWD requests,
	// under Assumption 1 (fire-and-forget, eventual delivery).
	ChanGossip Channel = 1
	// ChanSync carries the state-transfer service (bulk catch-up
	// streams, the live follower's polls, the snapshot tier):
	// request/response streams with explicit failure semantics.
	ChanSync Channel = 2
)

// Valid reports whether ch is a known channel.
func (c Channel) Valid() bool { return c == ChanGossip || c == ChanSync }

// String renders the channel for logs.
func (c Channel) String() string {
	switch c {
	case ChanGossip:
		return "gossip"
	case ChanSync:
		return "sync"
	default:
		return fmt.Sprintf("chan(%d)", uint8(c))
	}
}

// Errors surfaced by Call implementations through CallSink.OnDone.
var (
	// ErrUnreachable reports that the peer could not be contacted (not
	// connected, dial failure, or partitioned link).
	ErrUnreachable = errors.New("transport: peer unreachable")
	// ErrNoHandler reports that the peer is reachable but serves no
	// handler on the requested channel.
	ErrNoHandler = errors.New("transport: no handler on channel")
	// ErrStreamLost reports that the stream died after it was
	// established: the peer crashed, closed the connection, or was
	// deregistered mid-stream.
	ErrStreamLost = errors.New("transport: stream lost")
	// ErrVersionMismatch reports that the peer speaks an incompatible
	// transport protocol version.
	ErrVersionMismatch = errors.New("transport: protocol version mismatch")
	// ErrAuthFailed reports that the connection handshake's mutual
	// challenge–response failed: the peer could not prove possession of
	// the private key for its claimed ServerID, is not a roster member,
	// or the two sides disagree about whether authentication is required.
	ErrAuthFailed = errors.New("transport: peer authentication failed")
)

// NonceSize is the size in bytes of a handshake challenge nonce. Each side
// of an authenticated connection draws a fresh nonce per connection, so a
// recorded proof from an earlier handshake never verifies again.
const NonceSize = 32

// authDomain separates handshake signatures from every other signature in
// the system (blocks, application payloads): a handshake proof can never
// be replayed as anything else, and vice versa.
const authDomain = "blockdag/transport-auth/1"

// AuthContext renders the canonical byte string a handshake proof signs:
// the domain tag, the protocol version, the connection kind and channel,
// the two identities, and the verifier's fresh nonce. Binding the version
// and channel means a proof recorded for one purpose cannot authenticate
// a connection of another shape; binding the nonce makes every proof
// single-use.
//
// prover is the server producing the signature, verifier the server that
// issued the nonce and will check it. Both transports (tcpnet, simnet)
// and the handshake tests build the signed message through this one
// function, so they can never drift apart.
func AuthContext(version uint16, kind byte, ch Channel, nonce []byte, prover, verifier types.ServerID) []byte {
	w := wire.NewWriter(len(authDomain) + 16 + len(nonce))
	w.String(authDomain)
	w.Uint16(version)
	w.Byte(kind)
	w.Byte(byte(ch))
	w.Uint16(uint16(prover))
	w.Uint16(uint16(verifier))
	w.VarBytes(nonce)
	return w.Bytes()
}

// Authenticator proves and verifies roster membership during connection
// setup — the seam the mutual challenge–response handshake hangs on.
// Package roster provides the production implementation (Ed25519 keys
// from a roster file); tests substitute hostile ones (wrong key,
// non-roster key) to exercise rejection paths.
//
// Implementations must be safe for concurrent use: tcpnet invokes them
// from per-connection goroutines.
type Authenticator interface {
	// Self returns the identity this side proves as.
	Self() types.ServerID
	// Prove signs the peer-issued challenge context (an AuthContext
	// rendering) with this server's private key.
	Prove(context []byte) []byte
	// Verify checks that sig is id's signature over context, against the
	// roster's public key for id. It must return false for non-members.
	Verify(id types.ServerID, context, sig []byte) bool
	// Member reports whether id is a roster member — checked before any
	// challenge is issued, so non-roster claims are refused outright.
	Member(id types.ServerID) bool
}

// Endpoint consumes one-way payloads delivered from the network on one
// channel. Implementations are driven by a single goroutine (or the
// simulator loop) at a time.
type Endpoint interface {
	// Deliver hands one payload received from the given server over to
	// the protocol stack, for good: the transport never touches the slice
	// again nor hands it to anyone else, and the callee may keep it (a
	// received block's fields view it).
	Deliver(from types.ServerID, payload []byte)
}

// CallSink consumes the response stream of one Call. A transport invokes
// OnFrame zero or more times, in stream order, then OnDone exactly once.
// tcpnet invokes it from a connection goroutine; simnet from the event
// loop.
type CallSink interface {
	// OnFrame hands one response frame to the caller. The callee must
	// not retain the slice.
	OnFrame(frame []byte)
	// OnDone terminates the stream: nil if the handler closed it
	// cleanly, otherwise the reason the stream failed (ErrUnreachable,
	// ErrNoHandler, ErrVersionMismatch, ErrStreamLost, ...).
	OnDone(err error)
}

// ServerStream is the handler's side of one Call: a sequence of response
// frames followed by a close.
type ServerStream interface {
	// Send transmits one response frame, bounded by the transport's
	// frame limit (wire.MaxFrame). It returns an error once the stream
	// is dead (caller gone, connection lost); the handler should stop.
	Send(frame []byte) error
	// Close ends the stream. A nil error reports clean completion; a
	// non-nil error is conveyed to the caller's OnDone as a stream
	// failure. Send after Close is an error.
	Close(err error)
}

// Handler serves Calls on one channel.
type Handler interface {
	// ServeCall handles one request. It may send response frames and
	// must eventually close the stream. On tcpnet the handler's
	// execution bounds the stream's life: it runs on a per-connection
	// goroutine and a return without Close is closed with an error on
	// its behalf (never a clean end — an unfinished stream must not
	// masquerade as a complete one); handlers shared with a
	// single-threaded state machine must therefore synchronize
	// internally or read only immutable/concurrency-safe state. On
	// simnet a handler may outlive ServeCall by scheduling continuation
	// events (paced streams); it then owns closing explicitly.
	ServeCall(from types.ServerID, req []byte, st ServerStream)
}

// Transport sends payloads and opens calls on behalf of one server.
type Transport interface {
	// Self returns the server this transport sends as.
	Self() types.ServerID
	// Send transmits payload to the given server on the given channel,
	// best effort with eventual delivery between correct servers
	// (Assumption 1). Send must not block on the receiver;
	// implementations queue internally — the slice itself, not a copy:
	// from the call on payload is read-only, for the caller and whoever
	// else holds it, and the transport may keep it as long as it likes
	// (a queue, a retransmission). Callers hand in frames they built for
	// sending and never write to again; one frame may go to many peers.
	Send(to types.ServerID, ch Channel, payload []byte)
	// Call opens a request/response stream to the given server's
	// handler on the given channel. It returns immediately; the sink
	// receives the response frames and exactly one OnDone. The returned
	// cancel function abandons the call early (a late OnDone may still
	// be delivered with ErrStreamLost).
	Call(to types.ServerID, ch Channel, req []byte, sink CallSink) (cancel func())
}

// LateBoundBuffer is the number of pre-Bind deliveries a LateBound
// endpoint retains.
const LateBoundBuffer = 256

// LateBound is an Endpoint whose target is attached after construction,
// breaking the wiring cycle transport → server → runtime → handler when a
// transport must be listening before the consumer exists. Instantiate one
// per channel.
//
// Deliveries before Bind are buffered (up to LateBoundBuffer frames,
// oldest dropped first) and flushed, in order, when Bind attaches the
// target. Gossip tolerates pre-Bind loss — a dropped block is re-fetched
// via FWD once referenced — but other channels may not, so every channel
// is buffered.
type LateBound struct {
	mu      sync.Mutex
	ep      Endpoint
	pending []pendingDelivery
}

type pendingDelivery struct {
	from    types.ServerID
	payload []byte
}

var _ Endpoint = (*LateBound)(nil)

// Bind attaches the target endpoint and flushes buffered deliveries to it
// in arrival order. The endpoint is only installed once the buffer is
// drained, so a Deliver racing with Bind keeps buffering and cannot
// overtake older frames mid-flush; the flush itself runs outside the lock
// (an endpoint is free to call back into the LateBound).
func (l *LateBound) Bind(ep Endpoint) {
	l.mu.Lock()
	if ep != nil {
		for len(l.pending) > 0 {
			pending := l.pending
			l.pending = nil
			l.mu.Unlock()
			for _, p := range pending {
				ep.Deliver(p.from, p.payload)
			}
			l.mu.Lock()
		}
	}
	l.ep = ep
	l.mu.Unlock()
}

// Deliver implements Endpoint, forwarding to the bound target or buffering
// until Bind.
func (l *LateBound) Deliver(from types.ServerID, payload []byte) {
	l.mu.Lock()
	ep := l.ep
	if ep == nil {
		l.pending = append(l.pending, pendingDelivery{from: from, payload: payload})
		if drop := len(l.pending) - LateBoundBuffer; drop > 0 {
			l.pending = append(l.pending[:0], l.pending[drop:]...)
		}
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	ep.Deliver(from, payload)
}
