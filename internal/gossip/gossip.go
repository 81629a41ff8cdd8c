// Package gossip implements Algorithm 1 of the paper: building a joint
// block DAG by exchanging only blocks.
//
// Each server continuously (i) builds its block DAG G from received valid
// blocks, and (ii) builds its current block B from references to the blocks
// it inserts plus the user requests handed to it, sealing and disseminating
// B whenever Disseminate fires (Algorithm 3 drives the pacing).
//
// A reference includes its ancestry (paper Section 7, implicit block
// inclusion), so B cites its parent and the tips of what was inserted since
// — a block is dropped from the list as soon as a later one reaches it —
// not every block: O(tips) references instead of O(blocks seen), a handful
// after a restart instead of the whole backlog. Package interpret reads
// references the same way; docs/ARCHITECTURE.md, "What a reference means".
//
// There is a single core message type — the block — plus the FWD request
// that pulls a missing predecessor (Algorithm 1 lines 10–13). The blks
// buffer is the only FWD state: a buffered block remembers the peers that
// handed it over — its builder for a disseminated block, the paper's rule
// — or handed over a block citing it, and what it misses is asked of them
// in turn, at once and again every ResendAfter. Lemma 3.6 (a block valid at
// one correct server is eventually valid at every correct server) is the
// paper's argument with "references" read as "reaches": correct s holding B
// builds a block that reaches B through its parent and tips and sends it to
// correct s'. Whatever s hands over — a block it built, or a FWD answer,
// served from its DAG only — it holds with all its ancestry. A predecessor
// s' lacks is asked of s and arrives (Assumption 1), buffered as handed
// over by s; one s' had buffered from others counts s among its peers from
// then on, and no peer, silent or loud, is asked twice before s is asked
// again. Either way its own predecessors are asked of s in turn: by
// induction on depth s' comes to hold B. Hence Lemma 3.7, the eventually
// joint block DAG. No peer is asked for a reference unless a block it
// handed over reaches it.
//
// Gossip is a deterministic state machine: all inputs arrive through
// HandleMessage (or its batched form HandleMessages), Disseminate, and
// Tick. It performs no locking; the node runtime or the simulator
// serializes calls. The only internal concurrency is the signature
// worker pool HandleMessages borrows from crypto.Roster.VerifyBatch,
// which joins before any state is touched — state transitions remain
// bit-identical to the serial path.
package gossip

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/keyset"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Wire message kinds.
const (
	kindBlock    byte = 1
	kindFwd      byte = 2
	kindEvidence byte = 3
)

// EncodeBlockMsg frames a block for the wire. The block's canonical
// encoding comes from its encode-once cache (see block.Encode), so
// framing a sealed block costs one copy into the envelope — no
// re-serialization, no matter how many peers or retransmissions.
func EncodeBlockMsg(b *block.Block) []byte {
	w := wire.NewWriter(1 + b.EncodedSize() + 4)
	w.Byte(kindBlock)
	w.VarBytes(b.Encode())
	return w.Bytes()
}

// EncodeFwdMsg frames a FWD request for the given block reference.
func EncodeFwdMsg(ref block.Ref) []byte {
	w := wire.NewWriter(1 + crypto.HashSize)
	w.Byte(kindFwd)
	w.Bytes32(ref)
	return w.Bytes()
}

// EncodeEvidenceMsg frames a transferable equivocation proof for the
// gossip channel.
func EncodeEvidenceMsg(p *evidence.Proof) []byte {
	enc := p.Encode()
	w := wire.NewWriter(1 + len(enc) + 4)
	w.Byte(kindEvidence)
	w.VarBytes(enc)
	return w.Bytes()
}

// RequestSource supplies the (label, request) pairs to embed in the next
// block — the rqsts buffer shared with the shim (Algorithm 1 line 1).
type RequestSource interface {
	// Next returns and removes up to max buffered requests.
	Next(max int) []block.Request
	// Requeue returns drained requests to the front of the buffer —
	// Disseminate uses it when the block they were embedded in is
	// withheld from the network, so accepted requests are not silently
	// lost with it.
	Requeue(reqs []block.Request)
}

// Config parameterizes a gossip instance.
type Config struct {
	// Signer signs this server's blocks; its ID is the server identity.
	Signer *crypto.Signer
	// Roster is the fixed server set.
	Roster *crypto.Roster
	// DAG is this server's block DAG, shared read-only with the
	// interpreter.
	DAG *dag.DAG
	// Requests supplies requests for the next block. Required.
	Requests RequestSource
	// Transport sends wire messages. Required.
	Transport transport.Transport
	// OnInsert observes every block inserted into the DAG in insertion
	// order; the shim chains the interpreter and the persistence hook
	// here. Required. A non-nil error means the block was not
	// safely persisted: Disseminate then withholds the broadcast of the
	// own block it just built — an own block must never be externalized
	// before it is durable, or a crash re-signs its sequence number
	// (self-equivocation). Received blocks are unaffected; they are
	// already externalized by their builders.
	OnInsert func(*block.Block) error
	// Clock supplies the current time — the only one Tick and the buffer
	// read. The simulator injects virtual time. Required.
	Clock func() time.Duration
	// Metrics, optional.
	Metrics *metrics.Metrics

	// Scores records misbehaviour signals (bad signature, malformed
	// frame, bad evidence) against sending peers and holds the node's
	// convictions: the proof behind each ban. Once a builder is
	// banned, gossip stops sending to it and refuses fresh blocks built
	// by it — except blocks some buffered honest block already waits on,
	// which are still admitted so honest chains referencing pre-ban
	// blocks can complete (the ban must not break Lemma 3.7 for blocks
	// already externalized). The shim always supplies one; a nil scorer
	// (peerscore's methods are nil-receiver safe) records, keeps and bans
	// nothing: a fork is still detected, but no proof is kept or relayed.
	Scores *peerscore.Scorer
	// OnEvidence observes every proof that newly convicts a builder
	// (locally detected or learned from a peer) — the persistence
	// hook that makes bans survive restarts. Its error is latched by the
	// shim as a health problem; the proof stays accepted and relayed
	// either way. Required: any peer can send an evidence frame, and any
	// fork the DAG observes becomes a proof.
	OnEvidence func(*evidence.Proof) error
}

// invalidCacheSize bounds the remembered-invalid reference set, which would
// otherwise grow without bound under a byzantine flood of garbage blocks.
// The cache is an optimization — it only saves re-validating a resent
// invalid block — so FIFO eviction is safe: an evicted reference that
// resurfaces fails validation again.
const invalidCacheSize = 4096

// ResendAfter is the Δ_B' wait before a buffered block's missing
// predecessors are asked for again. No caller needs another value.
const ResendAfter = 200 * time.Millisecond

// maxBuffered caps one builder's blocks in the blks buffer: blocks citing
// references nobody holds are never insertable and never invalid, and a
// roster member can sign them for ever. A gap this deep in one chain is the
// sync channel's to fill, not FWD's.
const maxBuffered = 4096

// maxAwaited caps the references one builder's buffered blocks wait on,
// counted as each block registered them: every one is a waiters key and a
// FWD frame per ask, and one signed block may cite block.MaxPreds unknown
// references. A correct block cites its parent and the tips its builder
// inserted since — a few references, of which a block handed over early
// misses one or two — so a full buffer of them stays below four a block on
// average, and one block citing a quarter of MaxPreds or more is evicted
// before it asks for anything.
const maxAwaited = 4 * maxBuffered

// buffered is one entry of the blks buffer: the block, the authenticated
// peers that handed it, or a block citing it, over — asked in turn, so a
// silent one cannot keep the asks to itself — when ask last ran for it, and
// how many references it awaited when it was buffered (charged to its
// builder against maxAwaited until it leaves the buffer).
type buffered struct {
	blk    *block.Block
	from   []types.ServerID
	asks   int
	asked  time.Duration
	awaits int
}

// fwd is one FWD request: a reference asked of a peer.
type fwd struct {
	to  types.ServerID
	ref block.Ref
}

// Gossip is one server's instance of Algorithm 1.
type Gossip struct {
	cfg  Config
	self types.ServerID

	// pending is the blks buffer (line 3): received blocks not yet
	// insertable, keyed by reference.
	pending map[block.Ref]*buffered
	// waiters maps a missing reference to the buffered blocks waiting
	// for it; outstanding counts its keys that are not buffered themselves.
	waiters     map[block.Ref][]block.Ref
	outstanding int
	// held counts, per builder, its buffered blocks and awaiting the
	// references they wait on; arrivals lists them oldest first, the order
	// maxBuffered and maxAwaited evict in, among references that have left
	// the buffer since and are skipped.
	held     []int
	awaiting []int
	arrivals [][]block.Ref
	// invalid remembers references of blocks that failed validation;
	// anything referencing them can never become valid (Def. 3.3(iii)).
	// Bounded by invalidCacheSize, forgotten oldest first.
	invalid keyset.Set

	// heard is when a peer's block last arrived, on Clock (zero before the
	// first): the node's follower reads a long silence as lag (Heard).
	heard time.Duration

	// Current block B under construction (lines 2, 14–18): the tips, the
	// blocks inserted since the parent that no later inserted block reaches.
	// Its sequence number and parent are the DAG's own chain head
	// (dag.DAG.Head, HeadRef) — the parent kept apart from the tips, so tip
	// retirement can never drop it.
	curTips []block.Ref
}

// New validates the configuration and returns a ready gossip instance.
func New(cfg Config) (*Gossip, error) {
	switch {
	case cfg.Signer == nil:
		return nil, errors.New("gossip: config needs a Signer")
	case cfg.Roster == nil:
		return nil, errors.New("gossip: config needs a Roster")
	case cfg.DAG == nil:
		return nil, errors.New("gossip: config needs a DAG")
	case cfg.Requests == nil:
		return nil, errors.New("gossip: config needs a Requests source")
	case cfg.Transport == nil:
		return nil, errors.New("gossip: config needs a Transport")
	case cfg.OnInsert == nil:
		return nil, errors.New("gossip: config needs an OnInsert hook")
	case cfg.Clock == nil:
		return nil, errors.New("gossip: config needs a Clock")
	case cfg.OnEvidence == nil:
		return nil, errors.New("gossip: config needs an OnEvidence hook")
	}
	g := &Gossip{
		cfg:      cfg,
		self:     cfg.Signer.ID(),
		pending:  make(map[block.Ref]*buffered),
		waiters:  make(map[block.Ref][]block.Ref),
		held:     make([]int, cfg.Roster.N()),
		awaiting: make([]int, cfg.Roster.N()),
		arrivals: make([][]block.Ref, cfg.Roster.N()),
	}
	// Subscribe to the DAG's fork detection: the moment a slot is observed
	// forked — live traffic, follower absorption, or restore replay alike —
	// the pair is exported as a transferable proof, persisted, and relayed.
	cfg.DAG.SetOnEquivocation(g.onEquivocation)
	return g, nil
}

// HandleMessage consumes one wire payload from the network — a block
// (lines 4–5), a FWD request (lines 12–13) or evidence: HandleMessages of
// one message.
func (g *Gossip) HandleMessage(from types.ServerID, payload []byte) {
	g.HandleMessages([]Message{{From: from, Payload: payload}})
}

// Message is one wire payload tagged with its sender, the unit of the
// ingest path HandleMessages.
type Message struct {
	From    types.ServerID
	Payload []byte
}

// inbound is one payload decoded: a block, the reference a FWD asks for, or
// an encoded proof. Kind 0 is a payload that does not decode; rejected says
// it counts as a rejected block (a block's frame, or no known kind at all).
type inbound struct {
	kind     byte
	blk      *block.Block
	ref      block.Ref
	evidence []byte
	rejected bool
}

// decode classifies one wire payload, which is ours for good
// (transport.Endpoint): a block is viewed out of it and keeps it as its frame.
func decode(payload []byte) inbound {
	r := wire.NewReader(payload)
	switch r.Byte() {
	case kindBlock:
		enc := r.VarBytesView()
		if r.Close() == nil {
			if b, err := block.Decode(enc); err == nil {
				return inbound{kind: kindBlock, blk: b}
			}
		}
		return inbound{rejected: true}
	case kindFwd:
		if ref := block.Ref(r.Bytes32()); r.Close() == nil {
			return inbound{kind: kindFwd, ref: ref}
		}
		return inbound{}
	case kindEvidence:
		if enc := r.VarBytesView(); r.Close() == nil {
			return inbound{kind: kindEvidence, evidence: enc}
		}
		return inbound{}
	}
	return inbound{rejected: true}
}

// HandleMessages consumes a burst of wire payloads with the signature
// checks amortized: every payload is decoded once, up front; of the blocks
// not already known, two or more are batch-verified across GOMAXPROCS
// goroutines; and then every message is applied serially in arrival order.
// Malformed payloads from byzantine servers are counted and dropped. The
// state transitions are exactly those of handling the messages one burst
// each, in order — only the Ed25519 work is parallelized — so determinism
// is preserved and the node runtime can drain its inbound queue in bursts
// whenever delivery outpaces the handler.
func (g *Gossip) HandleMessages(msgs []Message) {
	// Pass 1: decode, and collect verification candidates — blocks we do
	// not already hold (or know to be invalid), deduplicated within the
	// burst. A lone block is verified where it is applied.
	in := make([]inbound, len(msgs))
	var candidates []*block.Block
	for i, m := range msgs {
		in[i] = decode(m.Payload)
		b := in[i].blk
		if b == nil || len(msgs) == 1 {
			continue
		}
		ref := b.Ref()
		if g.isInvalid(ref) || g.cfg.DAG.Contains(ref) || g.pending[ref] != nil ||
			!g.cfg.Roster.Contains(b.Builder) || g.cfg.Scores.Banned(b.Builder) ||
			slices.ContainsFunc(candidates, func(c *block.Block) bool { return c.Ref() == ref }) {
			continue // pass 2 counts it a duplicate, rejects it, drops it, or verifies it inline
		}
		candidates = append(candidates, b)
	}
	var verdicts map[block.Ref]bool
	if len(candidates) > 0 {
		ok := block.VerifyBatch(g.cfg.Roster, candidates, 0)
		verdicts = make(map[block.Ref]bool, len(candidates))
		for i, b := range candidates {
			verdicts[b.Ref()] = ok[i]
		}
	}
	// Pass 2: apply in arrival order. Duplicate-within-burst blocks hit
	// the DAG/pending re-check inside handleBlock, exactly as they would
	// one burst each.
	for i, m := range msgs {
		switch in[i].kind {
		case kindBlock:
			g.heard = g.cfg.Clock()
			g.handleBlock(m.From, in[i].blk, verdicts)
		case kindFwd:
			g.handleFwd(m.From, in[i].ref)
		case kindEvidence:
			g.handleEvidence(m.From, in[i].evidence)
		default:
			if in[i].rejected {
				g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
			}
			g.cfg.Scores.Penalize(m.From, peerscore.MalformedFrame)
		}
	}
	g.publishState() // once a burst: whatever it inserted, buffered or poisoned
}

// handleBlock implements lines 4–11 for one received block. verdicts, if
// it has an entry for the block, is its signature check done ahead
// (HandleMessages' batch pass); a block without one is verified inline.
func (g *Gossip) handleBlock(from types.ServerID, b *block.Block, verdicts map[block.Ref]bool) {
	g.cfg.Metrics.Add(metrics.BlocksReceived, 1)
	ref := b.Ref()
	e := g.pending[ref]
	if e != nil {
		g.heldBy(e, from)
	}
	if g.isInvalid(ref) || e != nil || g.cfg.DAG.Contains(ref) {
		g.cfg.Metrics.Add(metrics.BlocksDuplicate, 1)
		return
	}
	// Refuse a proven equivocator's output: fresh blocks built by a
	// banned server are refused before we even pay for a signature check —
	// except one some buffered block already waits on: chains that cited
	// the equivocator before its conviction must stay completable (Lemma
	// 3.7). Inserted blocks are untouched: flagged chains still interpret.
	if b.Builder != g.self && g.cfg.Scores.Banned(b.Builder) {
		if _, wanted := g.waiters[ref]; !wanted {
			g.cfg.Metrics.Add(metrics.BannedBlocksDropped, 1)
			return
		}
	}
	// Verify authorship once, on receipt (Definition 3.3(i)). Blocks
	// with bad signatures never enter the pending buffer.
	valid, prechecked := verdicts[ref]
	if !prechecked {
		valid = g.cfg.Roster.Contains(b.Builder) && b.VerifySignature(g.cfg.Roster)
	}
	if !valid {
		g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
		g.cfg.Scores.Penalize(from, peerscore.BadSignature)
		g.markInvalid(ref)
		return
	}
	if g.tryInsert(b) {
		return
	}
	e = &buffered{blk: b, from: []types.ServerID{from}}
	if _, awaited := g.waiters[ref]; awaited {
		g.outstanding--
	}
	g.pending[ref] = e
	for _, p := range g.cfg.DAG.MissingPreds(b) {
		if g.waiters[p] == nil && g.pending[p] == nil {
			g.outstanding++
		}
		g.waiters[p] = append(g.waiters[p], ref)
		e.awaits++
	}
	// Bound the builder's share of the buffer, in blocks and in the
	// references they await, oldest out first — this one too, if it alone
	// awaits too many — at the charge of whoever handed that one over.
	// Whatever still cites an evicted block asks for it again.
	q := append(g.arrivals[b.Builder], ref)
	if len(q) > 2*maxBuffered {
		q = slices.DeleteFunc(q, func(r block.Ref) bool { return g.pending[r] == nil })
	}
	g.held[b.Builder]++
	g.awaiting[b.Builder] += e.awaits
	for g.held[b.Builder] > maxBuffered || g.awaiting[b.Builder] > maxAwaited {
		for g.pending[q[0]] == nil {
			q = q[1:]
		}
		g.cfg.Scores.Penalize(g.pending[q[0]].from[0], peerscore.Throttled)
		g.unbuffer(q[0])
		q = q[1:]
	}
	g.arrivals[b.Builder] = q
	if g.pending[ref] == e {
		g.ask(e, map[fwd]struct{}{})
	}
}

// heldBy notes that peer handed over e's block, or a block citing it, and so
// holds it and what it cites: the same goes for its buffered predecessors.
// A banned peer is sent nothing, so asking it would be a turn wasted.
func (g *Gossip) heldBy(e *buffered, peer types.ServerID) {
	if slices.Contains(e.from, peer) || g.cfg.Scores.Banned(peer) {
		return
	}
	e.from = append(e.from, peer)
	for _, p := range e.blk.Preds {
		if pe := g.pending[p]; pe != nil {
			g.heldBy(pe, peer)
		}
	}
}

// ask is lines 10–11 for one buffered block: request every predecessor
// that is neither in the DAG nor in the buffer from the next of the block's
// peers, and count that peer among a buffered predecessor's. asked is what
// this round has sent already: many blocks may cite one reference.
func (g *Gossip) ask(e *buffered, asked map[fwd]struct{}) {
	e.asked = g.cfg.Clock()
	peer := e.from[e.asks%len(e.from)]
	e.asks++
	for _, p := range g.cfg.DAG.MissingPreds(e.blk) {
		if pe := g.pending[p]; pe != nil {
			g.heldBy(pe, peer)
		} else if _, dup := asked[fwd{peer, p}]; !dup {
			asked[fwd{peer, p}] = struct{}{}
			g.cfg.Metrics.Add(metrics.FwdRequestsSent, 1)
			g.send(peer, EncodeFwdMsg(p))
		}
	}
}

// publishState sets the gauges an operator reads the DAG's health from:
// tips, blocks waiting for a predecessor, references waiting for a FWD.
func (g *Gossip) publishState() {
	g.cfg.Metrics.Set(metrics.Tips, int64(len(g.curTips)))
	g.cfg.Metrics.Set(metrics.PendingBlocks, int64(len(g.pending)))
	g.cfg.Metrics.Set(metrics.MissingRefs, int64(g.outstanding))
}

// tryInsert inserts b if all predecessors are present, then cascades to
// any pending blocks waiting on b (line 6's "when valid" loop). It
// reports whether b was resolved (inserted or found invalid).
func (g *Gossip) tryInsert(b *block.Block) bool {
	ref := b.Ref()
	if len(g.cfg.DAG.MissingPreds(b)) > 0 {
		for _, p := range b.Preds {
			if g.isInvalid(p) {
				// A predecessor can never validate, so neither can this
				// block (Definition 3.3(iii)).
				g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
				g.markInvalid(ref)
				return true
			}
		}
		return false
	}
	if err := g.cfg.DAG.InsertVerified(b); err != nil {
		g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
		g.markInvalid(ref)
		return true
	}
	// A persist error on a received block never stops insertion (its
	// builder already externalized it); the shim latches it.
	_ = g.noteInserted(b)
	g.unbuffer(ref)
	return true
}

// noteInserted runs the post-insert duties for a block now in G: put it
// among the current block's references (line 8 — once, because insertion
// happens once, and by reference or by ancestry at most once in the own
// chain, which is Lemma A.6's discipline), notify the interpreter, and wake
// blocks waiting on it. It returns the OnInsert hook's error, which gates
// Disseminate's broadcast. The gauges are its caller's to publish.
func (g *Gossip) noteInserted(b *block.Block) error {
	ref := b.Ref()
	g.cfg.Metrics.Add(metrics.BlocksInserted, 1)
	if b.Builder != g.self || g.ownHead(ref) {
		// Retire every tip the new block reaches — citing it includes
		// them. A peer's block then becomes a tip. An own block at the top
		// of the own chain is the parent now (the DAG's head): the one
		// Disseminate just built, or one a previous incarnation of this
		// server published before its disk was lost, coming back from a
		// peer — its sequence number is taken, and the chain continues
		// above it.
		g.curTips = slices.DeleteFunc(g.curTips, func(p block.Ref) bool {
			return g.cfg.DAG.Reaches(p, ref)
		})
		if b.Builder != g.self {
			g.curTips = append(g.curTips, ref)
		}
	}
	hookErr := g.cfg.OnInsert(b)
	for _, wref := range g.settle(ref) {
		if e := g.pending[wref]; e != nil {
			g.tryInsert(e.blk)
		}
	}
	return hookErr
}

// ownHead reports whether ref is the top of the own chain in the DAG: the
// next own block's parent.
func (g *Gossip) ownHead(ref block.Ref) bool {
	head, ok := g.cfg.DAG.HeadRef(g.self)
	return ok && head == ref
}

// settle ends the wait for ref — it is inserted, or never will be, or nothing
// buffered cites it any more — and returns the blocks that waited for it.
func (g *Gossip) settle(ref block.Ref) []block.Ref {
	waiting, awaited := g.waiters[ref]
	if awaited && g.pending[ref] == nil {
		g.outstanding--
	}
	delete(g.waiters, ref)
	return waiting
}

// markInvalid records an unvalidatable reference and transitively poisons
// the buffered blocks that reference it.
func (g *Gossip) markInvalid(ref block.Ref) {
	g.rememberInvalid(ref)
	waiting := g.settle(ref)
	g.unbuffer(ref)
	for _, wref := range waiting {
		if g.pending[wref] != nil {
			g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
			g.markInvalid(wref)
		}
	}
}

// unbuffer removes a block, if buffered, from the buffer — an evicted one
// that is still cited is outstanding again — and from the waiter list of
// each predecessor, which may never arrive: the lists would leak.
func (g *Gossip) unbuffer(ref block.Ref) {
	e := g.pending[ref]
	if e == nil {
		return
	}
	delete(g.pending, ref)
	g.held[e.blk.Builder]--
	g.awaiting[e.blk.Builder] -= e.awaits
	if _, awaited := g.waiters[ref]; awaited {
		g.outstanding++
	}
	for _, p := range e.blk.Preds {
		if ws, ok := g.waiters[p]; ok {
			if ws = slices.DeleteFunc(ws, func(w block.Ref) bool { return w == ref }); len(ws) > 0 {
				g.waiters[p] = ws
			} else {
				g.settle(p)
			}
		}
	}
}

// rememberInvalid adds ref to the bounded invalid cache, evicting the
// oldest remembered reference when the cap is exceeded.
func (g *Gossip) rememberInvalid(ref block.Ref) {
	if _, added := g.invalid.Add(string(ref[:])); added && g.invalid.Len() > invalidCacheSize {
		g.invalid.Pop()
	}
}

// isInvalid reports whether ref is in the invalid cache.
func (g *Gossip) isInvalid(ref block.Ref) bool { return g.invalid.Has(string(ref[:])) }

// InsertVerified inserts a block that arrived outside the gossip
// exchange with its builder and signature already checked by the caller —
// the sync channel's pulls (syncsvc.Pull verifies every streamed block
// against the roster before handing it over). The block takes exactly the
// path a gossiped block takes after its signature check: validation and
// insertion into the DAG, a reference in the next own block, the OnInsert
// hook, and waking the buffered blocks that waited for it, which are then
// no longer asked after — the backlog arrives in bulk before the per-block
// retries burn round trips.
//
// A block already in the DAG is a no-op. A block the DAG refuses (a
// predecessor missing — a stream comes in topological order — or the
// parent rule broken) is returned as the error and changes nothing.
// Otherwise the error is the OnInsert hook's, as for a received block: the
// block stays inserted and the shim latches the health problem.
func (g *Gossip) InsertVerified(b *block.Block) error {
	ref := b.Ref()
	if g.cfg.DAG.Contains(ref) {
		return nil
	}
	if err := g.cfg.DAG.InsertVerified(b); err != nil {
		return fmt.Errorf("gossip: insert verified block %v: %w", ref, err)
	}
	defer g.publishState()
	return g.noteInserted(b)
}

// handleFwd answers a forwarding request (lines 12–13): if we hold the
// block, send it to the requester — read back from the journal if every
// chain has read it and the DAG has released it, which a correct peer never
// asks for but a recovering one may. Requests from banned peers die at the
// send gate.
func (g *Gossip) handleFwd(from types.ServerID, ref block.Ref) {
	if b, ok := g.cfg.DAG.Get(ref); ok {
		g.cfg.Metrics.Add(metrics.FwdRequestsServed, 1)
		g.send(from, EncodeBlockMsg(b))
	}
}

// onEquivocation is the DAG's fork-detection callback (installed by New):
// export the pair as a transferable proof and run the acceptance pipeline
// — convict, persist, relay.
func (g *Gossip) onEquivocation(first, second *block.Block) {
	g.cfg.Metrics.Add(metrics.EquivocationsSeen, 1)
	if first == nil {
		// The second block is the one just inserted, and the first, if the
		// DAG released it, is read back from the journal; only one pruned
		// below a horizon (or a journal that fails to read) is missing, and
		// then the fork stays detected without a transferable proof.
		return
	}
	g.acceptEvidence(evidence.New(first, second), g.self)
}

// handleEvidence consumes a kindEvidence payload: decode, verify against
// the roster (the proof is self-authenticating — two validly signed
// blocks in one slot), then accept. Peers pushing garbage pay for it.
func (g *Gossip) handleEvidence(from types.ServerID, enc []byte) {
	p, err := evidence.Decode(enc)
	if err != nil {
		g.cfg.Scores.Penalize(from, peerscore.MalformedFrame)
		return
	}
	if g.cfg.Scores.Banned(p.Equivocator()) {
		return // already convicted; skip the two signature verifications
	}
	if p.Verify(g.cfg.Roster) != nil {
		g.cfg.Scores.Penalize(from, peerscore.BadEvidence)
		return
	}
	g.acceptEvidence(p, from)
}

// acceptEvidence runs the accountability pipeline for a verified proof:
// convict its equivocator on it (the scorer keeps one proof per
// equivocator — a duplicate conviction ends here, which is what terminates
// the relay flood), persist through OnEvidence, and relay once to every
// peer that might not know — everyone but self, the peer it came from, the
// equivocator, and the already-banned.
func (g *Gossip) acceptEvidence(p *evidence.Proof, from types.ServerID) {
	if !g.cfg.Scores.Convict(p) {
		return
	}
	g.cfg.Metrics.Add(metrics.PeersBanned, 1)
	id := p.Equivocator()
	// The hook's error is latched by the shim (a persist failure is a
	// health problem, not a reason to drop a verified proof).
	_ = g.cfg.OnEvidence(p)
	enc := EncodeEvidenceMsg(p)
	for _, to := range g.cfg.Roster.IDs() {
		if to == g.self || to == from || to == id || g.cfg.Scores.Banned(to) {
			continue
		}
		g.cfg.Metrics.Add(metrics.EvidenceRelayed, 1)
		g.send(to, enc)
	}
}

// Disseminate implements lines 14–18: seal the current block with the
// buffered requests, insert it into the local DAG, send it to every other
// server, and start the next block with the parent reference. It returns
// the disseminated block — or, if the OnInsert hook reports it was not
// safely persisted, an error: a block is not externalized before it is
// durable, and this one stays local.
func (g *Gossip) Disseminate() (*block.Block, error) {
	reqs := g.cfg.Requests.Next(block.MaxRequests)
	// The own chain's head is the parent — a stand-in on a DAG seeded below
	// a snapshot horizon — so a rejoined node never reuses a published
	// sequence number (no self-equivocation).
	preds := make([]block.Ref, 0, 1+len(g.curTips))
	if parent, ok := g.cfg.DAG.HeadRef(g.self); ok {
		preds = append(preds, parent)
	}
	preds = append(preds, g.curTips...)
	b := block.New(g.self, g.cfg.DAG.Head(g.self).Next, preds, reqs)
	if err := b.Seal(g.cfg.Signer); err != nil {
		return nil, fmt.Errorf("gossip: seal block: %w", err)
	}
	if err := g.cfg.DAG.InsertVerified(b); err != nil {
		// Our own bookkeeping broke (the DAG mutated behind our back?).
		return nil, fmt.Errorf("gossip: insert own block: %w", err)
	}
	g.cfg.Metrics.Add(metrics.BlocksBuilt, 1)
	g.cfg.Metrics.Add(metrics.OwnBlockRefs, int64(len(preds)))
	hookErr := g.noteInserted(b)
	g.publishState()
	if hookErr != nil {
		// The own block failed to persist, so it is not broadcast: no peer
		// can ever see this sequence number, and a post-crash restart that
		// lost the block cannot equivocate by reusing it. Chain state has
		// advanced all the same (noteInserted) — the block is in the local
		// DAG, and the next own block must not reuse its number. Its
		// requests will never reach a peer; they go back where they came from.
		if len(reqs) > 0 {
			g.cfg.Requests.Requeue(reqs)
		}
		return nil, fmt.Errorf("gossip: block %v withheld, not safely persisted: %w", b.Ref(), hookErr)
	}
	g.cfg.Metrics.Add(metrics.RequestsEmbedded, int64(len(reqs)))
	enc := EncodeBlockMsg(b)
	for _, id := range g.cfg.Roster.IDs() {
		if id != g.self {
			g.send(id, enc)
		}
	}
	return b, nil
}

// Tick re-runs ask for every block that has sat in the buffer for
// ResendAfter since it last asked (the Δ_B' timer the paper assumes), in
// reference order, not in the map's: a seeded run must send the same
// sequence every time. It reports whether it asked again for anything: FWD
// did not fill a block's gap within ResendAfter, which is evidence of lag.
func (g *Gossip) Tick() (reasked bool) {
	now := g.cfg.Clock()
	var due []block.Ref
	for ref, e := range g.pending {
		if now-e.asked >= ResendAfter {
			due = append(due, ref)
		}
	}
	slices.SortFunc(due, func(a, b block.Ref) int { return bytes.Compare(a[:], b[:]) })
	asked := make(map[fwd]struct{})
	for _, ref := range due {
		g.ask(g.pending[ref], asked)
	}
	return len(due) > 0
}

// Heard returns when a peer's block last arrived, on Clock: the zero time
// before the first.
func (g *Gossip) Heard() time.Duration { return g.heard }

// send transmits one gossip payload. All of Algorithm 1's traffic rides
// transport.ChanGossip, whose fire-and-forget Send carries exactly the
// Assumption 1 semantics the algorithm's proofs rely on — for correct
// servers. Banned peers forfeit that service: every path (dissemination,
// FWD service, FWD requests, evidence relay) dies here for them.
func (g *Gossip) send(to types.ServerID, payload []byte) {
	if g.cfg.Scores.Banned(to) {
		return
	}
	g.cfg.Metrics.Add(metrics.WireMessages, 1)
	g.cfg.Metrics.Add(metrics.WireBytes, int64(len(payload)))
	g.cfg.Transport.Send(to, transport.ChanGossip, payload)
}
