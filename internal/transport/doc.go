// Package transport defines the versioned, multi-channel interface between
// the block DAG protocol stack and the network.
//
// # Envelope model
//
// Every payload travels inside a typed envelope: a protocol version plus a
// channel identifier. The version is negotiated once per connection (or,
// on the simulator, assumed equal — one process, one binary); peers whose
// versions differ refuse to exchange payloads rather than misinterpret
// them. The channel selects which consumer a payload is routed to:
//
//   - ChanGossip carries the fire-and-forget block exchange of Algorithm 1
//     (blocks and FWD requests). Its delivery contract is the paper's
//     Assumption 1: a payload sent between two correct servers eventually
//     arrives; ordering, duplication, and timing are unconstrained.
//   - ChanSync carries the state-transfer service (package syncsvc):
//     request/response streams with explicit failure, used by a recovering
//     replica to pull what it lacks of a peer's DAG in bulk, and by running nodes'
//     live-follower loops to state what they hold and pull missing
//     suffixes — instead of re-fetching the DAG one FWD round trip at a
//     time.
//
// Receivers register one Endpoint per channel (one-way payloads) and one
// Handler per channel (request/response streams); transports demultiplex
// inbound traffic to them, so a single socket or simulated link carries
// all channels.
//
// # Two primitives
//
// Send is the Assumption 1 primitive: best-effort enqueue, eventual
// delivery between correct servers, no failure signal. Gossip is built
// entirely on it and needs nothing stronger.
//
// Call opens a one-shot request/response stream: the request payload is
// handed to the remote Handler registered on the channel, which answers
// with zero or more frames followed by a close. Unlike Send, a Call fails
// explicitly — unreachable peer, no handler, version mismatch, peer death
// mid-stream — so clients can retry, switch peers, or fall back (the sync
// service falls back to per-block FWD). Frames within one call arrive in
// order; nothing is guaranteed across calls.
//
// # Authentication
//
// The paper keys its signature scheme by server identity and assumes the
// roster Srvrs is globally known; the transport makes that identity
// binding real at the connection level. An Authenticator (package roster
// provides the production implementation over a roster file) lets each
// side of a connection prove possession of the private key behind its
// claimed ServerID in a mutual challenge–response:
//
//  1. The dialer's identification frame carries its claimed ServerID and
//     a fresh random nonce.
//  2. The listener answers with its own identity, its own fresh nonce,
//     and a signature over AuthContext(version, kind, channel,
//     dialer-nonce, listener, dialer).
//  3. The dialer verifies that proof against the roster's key for the
//     peer it dialed (not merely the identity the listener claims), then
//     returns its signature over the listener's nonce.
//  4. The listener verifies against the roster's key for the claimed
//     dialer identity. Only then is any payload parsed.
//
// Binding the signature to a fresh nonce makes every proof single-use —
// a recorded handshake replays as garbage — and binding it to the
// version, kind, and channel (plus a domain tag separating handshake
// signatures from block signatures) prevents a proof minted for one
// purpose from authenticating another. Version negotiation runs before
// authentication: an incompatible peer is told ErrVersionMismatch, never
// ErrAuthFailed, so operators fix the right problem.
//
// Both implementations enforce the same seam: tcpnet runs the exchange as
// handshake frames on every connection (and will not listen without an
// Authenticator); simnet runs it through the registered Authenticators at
// link establishment (cached per server generation, so a restarted server
// re-proves itself), which lets cluster tests drive byzantine identity
// scenarios deterministically. Failures surface as ErrAuthFailed on calls,
// silent drops plus rejection counters on fire-and-forget sends.
//
// The handshake authenticates connection establishment only: subsequent
// frames carry no session MAC and no encryption, so an on-path attacker
// who can alter traffic after the handshake can still inject frames on
// the link. Integrity of everything that matters is unaffected — every
// block is Ed25519-signed and every bulk-sync stream is revalidated
// block by block — but deployments needing on-path resistance or
// confidentiality should run the transport over an encrypted channel
// (TLS, WireGuard); the handshake then still pins which roster member is
// at the far end.
//
// Without an Authenticator the transport trusts the claimed ServerID, as
// the seed reproduction did: block signatures still gate everything that
// enters the DAG, so a misattributed link wastes bandwidth rather than
// corrupting state — but byzantine-behaviour attribution (equivocation
// proofs naming a server) is only meaningful when connections prove
// their origin, so production deployments should always configure one.
//
// Two implementations ship with the repository: package simnet, a
// deterministic discrete-event simulator used by tests, benchmarks and
// experiments, and package tcpnet, a real TCP transport used by the node
// runtime (version + authentication handshake in connection setup,
// per-channel frame demultiplexing, one connection per call).
package transport
