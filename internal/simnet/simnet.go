// Package simnet is a deterministic discrete-event network simulator.
//
// Every experiment of internal/experiments runs on simnet: it provides the
// paper's Assumption 1 (eventual delivery between correct servers) while
// letting tests and benchmarks control latency, jitter, reordering, drops,
// and partitions — reproducibly, from a seed. Virtual time advances only
// when events execute, so a simulated second costs microseconds of real
// time and two runs with equal seeds produce byte-identical traces.
//
// Nodes register a transport.Endpoint per channel (and a
// transport.Handler per channel for request/response streams); all are
// invoked synchronously by the event loop, one event at a time, so node
// state machines need no internal locking. Call streams deliver each
// response frame as its own event, FIFO within the stream, which lets
// cluster tests drive bulk catch-up scenarios — including a server
// crashing mid-stream (Deregister) — fully deterministically.
package simnet

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Option configures a Network.
type Option func(*Network)

// WithSeed fixes the RNG seed; runs with equal seeds are identical.
func WithSeed(seed int64) Option {
	return func(n *Network) {
		n.rng = rand.New(rand.NewSource(seed))
	}
}

// WithLatency sets the link latency model: each delivery is delayed by
// base plus a uniformly random fraction of jitter. Jitter makes delivery
// order differ across links, exercising DAG reordering paths.
func WithLatency(base, jitter time.Duration) Option {
	return func(n *Network) {
		n.latBase, n.latJitter = base, jitter
	}
}

// WithDrop makes each unicast be lost with probability p (0 ≤ p < 1).
// Dropped sends violate per-message delivery, but the gossip layer's FWD
// retry mechanism restores eventual block delivery, which tests verify.
func WithDrop(p float64) Option {
	return func(n *Network) { n.dropP = p }
}

// Stats counts network activity.
type Stats struct {
	Sends      int64 // Send calls observed
	Delivered  int64 // payloads delivered to endpoints
	Dropped    int64 // payloads lost to WithDrop or partitions
	Bytes      int64 // payload bytes accepted for transmission
	Calls      int64 // Call streams opened
	CallFrames int64 // response frames delivered on call streams
	CallBytes  int64 // request + response bytes on call streams
	BanDrops   int64 // payloads and calls refused because either side banned the other
}

// registration holds one server's per-channel consumers.
type registration struct {
	endpoints [transport.ChanSync + 1]transport.Endpoint
	handlers  [transport.ChanSync + 1]transport.Handler
}

// Network is the simulator. Not safe for concurrent use: the event loop
// and all node logic run on the caller's goroutine.
type Network struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand

	latBase   time.Duration
	latJitter time.Duration
	dropP     float64

	nodes   map[types.ServerID]*registration
	gens    map[types.ServerID]uint64 // survives Deregister
	streams []*simStream              // open call streams, pruned lazily
	blocked func(from, to types.ServerID) bool

	// scorers holds each server's peer scorer; when either endpoint of a
	// link has banned the other, traffic on that link is refused — the
	// simulator's analogue of tcpnet dropping connections to and from
	// banned peers. They are checked per payload: a ban can land mid-run.
	scorers map[types.ServerID]*peerscore.Scorer

	stats Stats
}

// New creates a network with default parameters: seed 1, latency
// 10ms ± 5ms, no drops.
func New(opts ...Option) *Network {
	n := &Network{
		rng:       rand.New(rand.NewSource(1)),
		latBase:   10 * time.Millisecond,
		latJitter: 5 * time.Millisecond,
		nodes:     make(map[types.ServerID]*registration),
		gens:      make(map[types.ServerID]uint64),
		scorers:   make(map[types.ServerID]*peerscore.Scorer),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// node returns (creating if needed) the registration for a server.
func (n *Network) node(id types.ServerID) *registration {
	reg, ok := n.nodes[id]
	if !ok {
		reg = &registration{}
		n.nodes[id] = reg
	}
	return reg
}

// Register attaches the endpoint consuming one-way payloads on one
// channel of the given server.
func (n *Network) Register(id types.ServerID, ch transport.Channel, ep transport.Endpoint) {
	if !ch.Valid() {
		panic(fmt.Sprintf("simnet: register on invalid channel %v", ch))
	}
	n.node(id).endpoints[ch] = ep
}

// RegisterHandler attaches the call handler serving request/response
// streams on one channel of the given server.
func (n *Network) RegisterHandler(id types.ServerID, ch transport.Channel, h transport.Handler) {
	if !ch.Valid() {
		panic(fmt.Sprintf("simnet: register handler on invalid channel %v", ch))
	}
	n.node(id).handlers[ch] = h
}

// linkBanned reports whether either endpoint of the from→to link has
// banned the other.
func (n *Network) linkBanned(from, to types.ServerID) bool {
	return n.scorers[from].Banned(to) || n.scorers[to].Banned(from)
}

// Deregister detaches all of a server's endpoints, handlers and its
// scorer — the crash model. Future deliveries to it are dropped. Call
// streams the server was serving but had not yet closed are aborted: the
// client observes ErrStreamLost after a link delay (frames already in
// flight still arrive first). Re-registering later models a restarted
// server.
func (n *Network) Deregister(id types.ServerID) {
	n.gens[id]++
	delete(n.nodes, id)
	delete(n.scorers, id)
	kept := n.streams[:0]
	for _, st := range n.streams {
		if st.done || st.canceled {
			continue // prune settled streams
		}
		if st.server == id && st.open && !st.closed {
			st.closed = true
			at := st.deliverAt()
			stream := st
			n.schedule(at-n.now, func() { stream.finish(transport.ErrStreamLost) })
			continue
		}
		kept = append(kept, st)
	}
	n.streams = kept
}

// pruneStreams drops settled call streams from the tracking list, so a
// long-lived network issuing many calls does not retain every sink (a
// syncsvc pull's sink holds a whole scratch DAG) for its lifetime. Runs
// on each call open; Deregister prunes too.
func (n *Network) pruneStreams() {
	kept := n.streams[:0]
	for _, st := range n.streams {
		if st.done || st.canceled {
			continue
		}
		kept = append(kept, st)
	}
	// Zero the dropped tail so the backing array does not pin settled
	// streams.
	for i := len(kept); i < len(n.streams); i++ {
		n.streams[i] = nil
	}
	n.streams = kept
}

// SetDrop changes the drop probability at runtime. Tests use it to run a
// lossy phase followed by a healed phase.
func (n *Network) SetDrop(p float64) { n.dropP = p }

// SetPartition installs a link filter: when blocked(from, to) returns
// true, payloads on that link are dropped (counted in Stats.Dropped).
// Pass nil to heal all partitions. Partitions combined with later healing
// exercise the "gossip some more" convergence of Lemma 3.7.
func (n *Network) SetPartition(blocked func(from, to types.ServerID) bool) {
	n.blocked = blocked
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Stats returns a copy of the activity counters.
func (n *Network) Stats() Stats { return n.stats }

// Transport returns the transport handle for a registered server.
func (n *Network) Transport(id types.ServerID) transport.Transport {
	return &handle{net: n, id: id}
}

// Listen binds one server the way a deployed node is bound to its
// listener (deploy.Network): cfg's endpoints, call handlers and scorer,
// registered for cfg.Self. It ignores cfg.Auth: every simulated link is
// trusted, because the network fixes each handle's sender id, and a block's
// author is proven by its signature (Definition 3.3(i)), not by the link.
// Proving who is at the far end of a connection is tcpnet's, which does it
// on every connection. While the scorer is registered, the
// network refuses traffic on any link where one endpoint has banned the
// other: sends are dropped (counted in Stats.BanDrops) and calls fail with
// transport.ErrUnreachable, as the TCP transport tears down and refuses
// connections with banned peers. The Link it returns is the server's
// transport, whose node the network's owner steps.
func (n *Network) Listen(cfg tcpnet.Config) *Link {
	for ch, ep := range cfg.Endpoints {
		n.Register(cfg.Self, ch, ep)
	}
	for ch, h := range cfg.Handlers {
		n.RegisterHandler(cfg.Self, ch, h)
	}
	n.scorers[cfg.Self] = cfg.Scores
	return &Link{handle: handle{net: n, id: cfg.Self}}
}

// ErrNotStarted is what a call from a Link gets before Start: the caller
// would wait for it on the goroutine that steps the network.
var ErrNotStarted = errors.New("simnet: no call before the server starts: nothing steps the network while it waits")

// Link is a listened server's transport as a deploy.Link: no address to
// dial, no counters of its own, Close the crash model (Deregister). Only a
// snapshot join calls before Start, and waits on the call, which nothing
// would answer here: until Start a call fails at once with ErrNotStarted,
// and the node comes up on what its store holds.
type Link struct {
	handle
	started bool
}

// Call implements transport.Transport.
func (l *Link) Call(to types.ServerID, ch transport.Channel, req []byte, sink transport.CallSink) func() {
	if !l.started {
		sink.OnDone(ErrNotStarted)
		return func() {}
	}
	return l.handle.Call(to, ch, req, sink)
}

// Connect does nothing: the network routes by server id.
func (*Link) Connect(types.ServerID, string) error { return nil }

// Addr is empty: there is nothing to dial.
func (*Link) Addr() string { return "" }

// Counts is nil: Stats counts the whole network.
func (*Link) Counts() *metrics.Metrics { return nil }

// Start lets calls through and leaves the node unstarted: the network's
// owner steps its turns.
func (l *Link) Start(func() error) error {
	l.started = true
	return nil
}

// Close deregisters the server.
func (l *Link) Close() error {
	l.net.Deregister(l.id)
	return nil
}

// handle implements transport.Transport for one server.
type handle struct {
	net *Network
	id  types.ServerID
}

var _ transport.Transport = (*handle)(nil)

// Self implements transport.Transport.
func (h *handle) Self() types.ServerID { return h.id }

// Send implements transport.Transport: schedule delivery to the remote
// channel endpoint after the link latency, unless dropped or partitioned.
func (h *handle) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	n := h.net
	n.stats.Sends++
	n.stats.Bytes += int64(len(payload))
	if n.blocked != nil && n.blocked(h.id, to) {
		n.stats.Dropped++
		return
	}
	if n.dropP > 0 && n.rng.Float64() < n.dropP {
		n.stats.Dropped++
		return
	}
	if n.linkBanned(h.id, to) {
		n.stats.Dropped++
		n.stats.BanDrops++
		return
	}
	from := h.id
	// Copy at the boundary, as a socket does: one frame goes to many peers
	// and each receiver owns what it is delivered (transport.Endpoint) —
	// without the copy every server's DAG would alias the sender's frame.
	data := append([]byte(nil), payload...)
	n.schedule(n.linkDelay(), func() {
		reg, ok := n.nodes[to]
		if !ok || !ch.Valid() || reg.endpoints[ch] == nil {
			n.stats.Dropped++
			return
		}
		n.stats.Delivered++
		reg.endpoints[ch].Deliver(from, data)
	})
}

// linkDelay draws one delivery latency from the link model.
func (n *Network) linkDelay() time.Duration {
	delay := n.latBase
	if n.latJitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.latJitter)))
	}
	return delay
}

// Call implements transport.Transport: after one link latency the remote
// handler runs inside a simulator event; each response frame travels back
// as its own delivery event, in order. Failures — partitioned link, no
// such server, no handler on the channel, server deregistered mid-stream
// — surface through sink.OnDone, giving calls the explicit
// failure-or-result semantics Send deliberately lacks. The random drop
// model applies only to call setup (a lost "dial"), never to individual
// response frames: an established stream either progresses or fails,
// like a connection.
func (h *handle) Call(to types.ServerID, ch transport.Channel, req []byte, sink transport.CallSink) func() {
	n := h.net
	n.stats.Calls++
	n.stats.CallBytes += int64(len(req))
	st := &simStream{net: n, caller: h.id, server: to, sink: sink}
	fail := func(err error) {
		n.schedule(n.linkDelay(), func() { st.finish(err) })
	}
	switch {
	case n.blocked != nil && n.blocked(h.id, to):
		fail(transport.ErrUnreachable)
	case n.dropP > 0 && n.rng.Float64() < n.dropP:
		fail(transport.ErrUnreachable)
	case n.linkBanned(h.id, to):
		// A banned link is torn down, not merely lossy: the caller sees
		// the same explicit failure as a partitioned peer.
		n.stats.BanDrops++
		fail(transport.ErrUnreachable)
	default:
		from := h.id
		data := append([]byte(nil), req...)
		n.schedule(n.linkDelay(), func() {
			reg, ok := n.nodes[to]
			if !ok {
				st.finish(transport.ErrUnreachable)
				return
			}
			if !ch.Valid() || reg.handlers[ch] == nil {
				st.finish(transport.ErrNoHandler)
				return
			}
			st.gen = n.gens[to]
			st.open = true
			n.pruneStreams()
			n.streams = append(n.streams, st)
			reg.handlers[ch].ServeCall(from, data, st)
		})
	}
	return st.cancel
}

// simStream is one in-flight call: the handler's ServerStream on the
// serving side and the pending frame deliveries toward the caller's sink.
type simStream struct {
	net            *Network
	caller, server types.ServerID
	sink           transport.CallSink
	gen            uint64 // server generation at open; bumped by Deregister
	open           bool   // handler was invoked
	lastAt         time.Duration
	closed         bool // handler closed its side
	done           bool // sink saw OnDone
	canceled       bool // caller abandoned the call
}

var _ transport.ServerStream = (*simStream)(nil)

// dead reports whether the serving side should stop: the caller canceled,
// the stream completed, or the serving server was deregistered since the
// stream opened.
func (s *simStream) dead() bool {
	if s.canceled || s.done {
		return true
	}
	return s.open && s.net.gens[s.server] != s.gen
}

// deliverAt sequences stream events FIFO: each is scheduled one link
// delay out, but never before the previously scheduled one (jitter must
// not reorder frames within a stream).
func (s *simStream) deliverAt() time.Duration {
	at := s.net.now + s.net.linkDelay()
	if at < s.lastAt {
		at = s.lastAt
	}
	s.lastAt = at
	return at
}

// Send implements transport.ServerStream.
func (s *simStream) Send(frame []byte) error {
	if s.closed {
		return errors.New("simnet: send on closed stream")
	}
	if s.dead() {
		return transport.ErrStreamLost
	}
	n := s.net
	n.stats.CallBytes += int64(len(frame))
	data := append([]byte(nil), frame...)
	at := s.deliverAt()
	n.schedule(at-n.now, func() {
		if s.done || s.canceled {
			return
		}
		n.stats.CallFrames++
		s.sink.OnFrame(data)
	})
	return nil
}

// Close implements transport.ServerStream.
func (s *simStream) Close(err error) {
	if s.closed || s.dead() {
		s.closed = true
		return
	}
	s.closed = true
	at := s.deliverAt()
	s.net.schedule(at-s.net.now, func() { s.finish(err) })
}

// finish delivers the terminal OnDone exactly once.
func (s *simStream) finish(err error) {
	if s.done || s.canceled {
		return
	}
	s.done = true
	s.sink.OnDone(err)
}

// cancel abandons the call from the caller's side: pending frames are
// discarded and no OnDone is delivered (the caller has moved on).
func (s *simStream) cancel() {
	s.canceled = true
}

// After schedules fn to run at Now()+d. Nodes use it for protocol timers
// (disseminate pacing, FWD retries).
func (n *Network) After(d time.Duration, fn func()) {
	n.schedule(d, fn)
}

func (n *Network) schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	n.seq++
	heap.Push(&n.events, event{at: n.now + d, seq: n.seq, fn: fn})
}

// Step executes the next event, if any, advancing virtual time.
func (n *Network) Step() bool {
	if n.events.Len() == 0 {
		return false
	}
	ev, ok := heap.Pop(&n.events).(event)
	if !ok {
		panic("simnet: heap contained non-event")
	}
	n.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue is empty (quiescence). Protocols
// that schedule unconditional periodic timers never quiesce; bound those
// runs with Step.
func (n *Network) Run() {
	for n.Step() {
	}
}

// event is one scheduled callback; seq breaks ties deterministically.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) {
	ev, ok := x.(event)
	if !ok {
		panic(fmt.Sprintf("simnet: pushed %T onto event heap", x))
	}
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
