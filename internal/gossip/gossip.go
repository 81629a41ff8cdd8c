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
// used to pull a missing predecessor from the server whose block
// referenced it (Algorithm 1 lines 10–13). Together with Assumption 1
// (reliable delivery) this yields Lemma 3.6: every block a correct server
// considers valid is eventually valid at every correct server — and hence
// Lemma 3.7, the eventually joint block DAG.
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
	// Requests supplies requests for the next block. May be nil for
	// pure relays.
	Requests RequestSource
	// Transport sends wire messages. Required.
	Transport transport.Transport
	// OnInsert, if non-nil, observes every block inserted into the DAG
	// in insertion order; the shim chains the interpreter and the
	// persistence hook here. A non-nil error means the block was not
	// safely persisted: Disseminate then withholds the broadcast of the
	// own block it just built — an own block must never be externalized
	// before it is durable, or a crash re-signs its sequence number
	// (self-equivocation). Received blocks are unaffected; they are
	// already externalized by their builders.
	OnInsert func(*block.Block) error
	// Clock supplies the current time for FWD retry bookkeeping. The
	// simulator injects virtual time. Required.
	Clock func() time.Duration
	// Metrics, optional.
	Metrics *metrics.Metrics

	// Scores records misbehaviour signals (bad signature, malformed
	// frame, bad evidence) against sending peers and carries the
	// terminal ban state evidence convictions feed. Once a builder is
	// banned, gossip stops sending to it and refuses fresh blocks built
	// by it — except blocks some pending honest block already waits on,
	// which are still admitted so honest chains referencing pre-ban
	// blocks can complete (the ban must not break Lemma 3.7 for blocks
	// already externalized). The shim always supplies one; a nil scorer
	// (peerscore's methods are nil-receiver safe) records and bans nothing.
	Scores *peerscore.Scorer
	// OnEvidence observes every proof newly accepted into the evidence
	// pool (locally detected or learned from a peer) — the persistence
	// hook that makes bans survive restarts. Its error is latched by the
	// shim as a health problem; the proof stays accepted and relayed
	// either way. Required: any peer can send an evidence frame, and any
	// fork the DAG observes becomes a proof.
	OnEvidence func(*evidence.Proof) error

	// MaxBatch bounds requests per block; 0 means DefaultMaxBatch.
	MaxBatch int
}

// DefaultMaxBatch is Config.MaxBatch's default.
const DefaultMaxBatch = 256

// invalidCacheSize bounds the remembered-invalid reference set, which would
// otherwise grow without bound under a byzantine flood of garbage blocks.
// The cache is an optimization — it only saves re-validating a resent
// invalid block — so FIFO eviction is safe: an evicted reference that
// resurfaces fails validation again.
const invalidCacheSize = 4096

// The FWD timers: constants, not Config fields — no caller needs another
// value.
const (
	// ResendAfter is the Δ_B' wait before re-issuing a FWD request for a
	// still-missing block.
	ResendAfter = 200 * time.Millisecond
	// FwdFallbackAfter is the number of unanswered FWD retries to the
	// referencing block's builder after which the request is broadcast to
	// all servers — a liveness extension for crashed or byzantine builders
	// (the paper notes asking others is "not necessary" for correctness;
	// it is useful in practice).
	FwdFallbackAfter = 3
)

// missingState tracks one outstanding FWD request.
type missingState struct {
	askFrom  types.ServerID // builder of the block that referenced it
	lastAsk  time.Duration
	attempts int
}

// Gossip is one server's instance of Algorithm 1.
type Gossip struct {
	cfg  Config
	self types.ServerID

	// pending is the blks buffer (line 3): received blocks not yet
	// insertable, keyed by reference.
	pending map[block.Ref]*block.Block
	// waiters maps a missing reference to the pending blocks waiting
	// for it.
	waiters map[block.Ref][]block.Ref
	// missing tracks FWD-requested references not yet received.
	missing map[block.Ref]*missingState
	// invalid remembers references of blocks that failed validation;
	// anything referencing them can never become valid (Def. 3.3(iii)).
	// Bounded by invalidCacheSize: invalidFIFO holds the same references in
	// remember order (from invalidHead on), and the oldest is evicted when
	// the cache overflows.
	invalid     map[block.Ref]struct{}
	invalidFIFO []block.Ref
	invalidHead int

	// convicted holds one transferable proof per equivocator this server
	// has detected or been shown (Evidence).
	convicted *evidence.Pool

	// Current block B under construction (lines 2, 14–18): its sequence
	// number, the parent reference (own previous block, if any — kept apart
	// so tip retirement can never drop it), and the tips: the blocks
	// inserted since the parent that no later inserted block reaches.
	curSeq    uint64
	curParent *block.Ref
	curTips   []block.Ref
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
	case cfg.Transport == nil:
		return nil, errors.New("gossip: config needs a Transport")
	case cfg.Clock == nil:
		return nil, errors.New("gossip: config needs a Clock")
	case cfg.OnEvidence == nil:
		return nil, errors.New("gossip: config needs an OnEvidence hook")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	g := &Gossip{
		cfg:       cfg,
		self:      cfg.Signer.ID(),
		pending:   make(map[block.Ref]*block.Block),
		waiters:   make(map[block.Ref][]block.Ref),
		missing:   make(map[block.Ref]*missingState),
		invalid:   make(map[block.Ref]struct{}),
		convicted: evidence.NewPool(),
	}
	// Subscribe to the DAG's fork detection: the moment a slot is observed
	// forked — live traffic, follower absorption, or restore replay alike —
	// the pair is exported as a transferable proof, persisted, and relayed.
	cfg.DAG.SetOnEquivocation(g.onEquivocation)
	return g, nil
}

// Self returns this server's identity.
func (g *Gossip) Self() types.ServerID { return g.self }

// Evidence exposes the pool of equivocation proofs. Treat as read-only.
func (g *Gossip) Evidence() *evidence.Pool { return g.convicted }

// SeedBase anchors the own chain on its highest pruned-history stand-in,
// for a DAG seeded with one (dag.SeedBase): with every own block below
// the snapshot horizon the next block still continues the chain, so a
// rejoined node never reuses a published sequence number (no
// self-equivocation). Own blocks above the horizon then advance the chain
// as they are inserted, like any others (noteInserted).
func (g *Gossip) SeedBase(base []dag.Base) {
	for _, e := range base {
		if e.Builder == g.self && e.Seq >= g.curSeq {
			g.curSeq, g.curParent = e.Seq+1, &e.Ref
		}
	}
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

// decode classifies one wire payload.
func decode(payload []byte) inbound {
	r := wire.NewReader(payload)
	switch r.Byte() {
	case kindBlock:
		enc := r.VarBytes()
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
		if enc := r.VarBytes(); r.Close() == nil {
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
		if g.cfg.DAG.Contains(ref) || g.pending[ref] != nil {
			continue
		}
		if _, bad := g.invalid[ref]; bad {
			continue
		}
		if slices.ContainsFunc(candidates, func(c *block.Block) bool { return c.Ref() == ref }) {
			continue
		}
		if !g.cfg.Roster.Contains(b.Builder) {
			continue // pass 2 rejects it on the inline path
		}
		if g.cfg.Scores.Banned(b.Builder) {
			// Pass 2 drops it (or, if a pending block waits on it,
			// verifies inline) — either way batch work is wasted.
			continue
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
}

// handleBlock implements lines 4–11 for one received block. verdicts, if
// it has an entry for the block, is its signature check done ahead
// (HandleMessages' batch pass); a block without one is verified inline.
func (g *Gossip) handleBlock(from types.ServerID, b *block.Block, verdicts map[block.Ref]bool) {
	g.cfg.Metrics.Add(metrics.BlocksReceived, 1)
	defer g.publishState() // once a block: inserted (with whatever waited on it), buffered or poisoned
	ref := b.Ref()
	if g.cfg.DAG.Contains(ref) || g.pending[ref] != nil {
		g.cfg.Metrics.Add(metrics.BlocksDuplicate, 1)
		return
	}
	if _, bad := g.invalid[ref]; bad {
		g.cfg.Metrics.Add(metrics.BlocksDuplicate, 1)
		return
	}
	// Quarantine a proven equivocator's output: fresh blocks built by a
	// banned server are refused before we even pay for a signature
	// check. The one exception is a block some pending honest block
	// already references (a waiter or outstanding FWD exists): honest
	// pre-ban chains must stay completable, or the ban would wedge
	// Lemma 3.7 convergence for everyone who referenced the equivocator
	// before conviction. Already-inserted blocks are untouched — flagged
	// chains still interpret, per the paper.
	if b.Builder != g.self && g.cfg.Scores.Banned(b.Builder) {
		_, wanted := g.waiters[ref]
		if !wanted {
			_, wanted = g.missing[ref]
		}
		if !wanted {
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
	// The block has arrived; stop FWD retries for it.
	delete(g.missing, ref)

	g.pending[ref] = b
	if !g.tryInsert(b) {
		// Request whichever predecessors we neither hold nor asked
		// for yet (lines 10–11), from the builder of this block.
		for _, p := range g.cfg.DAG.MissingPreds(b) {
			if _, bad := g.invalid[p]; bad {
				continue
			}
			g.waiters[p] = append(g.waiters[p], ref)
			if g.pending[p] != nil {
				continue // already buffered, just not insertable yet
			}
			if _, asked := g.missing[p]; asked {
				continue
			}
			g.missing[p] = &missingState{askFrom: b.Builder, lastAsk: g.cfg.Clock()}
			g.sendFwd(b.Builder, p)
		}
	}
}

// publishState sets the gauges an operator reads the DAG's health from:
// tips, blocks waiting for a predecessor, references waiting for a FWD.
func (g *Gossip) publishState() {
	g.cfg.Metrics.Set(metrics.Tips, int64(len(g.curTips)))
	g.cfg.Metrics.Set(metrics.PendingBlocks, int64(len(g.pending)))
	g.cfg.Metrics.Set(metrics.MissingRefs, int64(len(g.missing)))
}

// tryInsert inserts b if all predecessors are present, then cascades to
// any pending blocks waiting on b (line 6's "when valid" loop). It
// reports whether b was resolved (inserted or found invalid).
func (g *Gossip) tryInsert(b *block.Block) bool {
	ref := b.Ref()
	if len(g.cfg.DAG.MissingPreds(b)) > 0 {
		for _, p := range b.Preds {
			if _, bad := g.invalid[p]; bad {
				// A predecessor can never validate, so neither
				// can this block (Definition 3.3(iii)); markInvalid
				// drops it from pending and clears its waiter
				// registrations.
				g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
				g.markInvalid(ref)
				return true
			}
		}
		return false
	}
	delete(g.pending, ref)
	if err := g.cfg.DAG.InsertVerified(b); err != nil {
		g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
		g.markInvalid(ref)
		return true
	}
	// A persist error on a received block never stops insertion (the
	// builder already externalized it); the shim records it as a health
	// problem.
	_ = g.noteInserted(b)
	return true
}

// noteInserted runs the post-insert duties for a block now in G: put it
// among the current block's references (line 8 — once, because insertion
// happens once, and by reference or by ancestry at most once in the own
// chain, which is Lemma A.6's discipline), notify the interpreter, and wake
// blocks waiting on it. It returns the OnInsert hook's error so Disseminate
// can gate externalization of own blocks. The gauges are its caller's to
// publish (publishState), once for the block and all it woke.
func (g *Gossip) noteInserted(b *block.Block) error {
	ref := b.Ref()
	g.cfg.Metrics.Add(metrics.BlocksInserted, 1)
	if b.Builder != g.self || b.Seq >= g.curSeq {
		// Retire every tip the new block reaches — citing it includes
		// them. A peer's block then becomes a tip. An own block becomes the
		// parent: the one Disseminate just built, or one a previous
		// incarnation of this server published before its disk was lost,
		// coming back from a peer — its sequence number is taken, and the
		// chain continues above it.
		g.curTips = slices.DeleteFunc(g.curTips, func(p block.Ref) bool {
			return g.cfg.DAG.Reaches(p, ref)
		})
		if b.Builder != g.self {
			g.curTips = append(g.curTips, ref)
		} else {
			parent := ref // its own variable: ref must not escape on every insert
			g.curSeq, g.curParent = b.Seq+1, &parent
		}
	}
	var hookErr error
	if g.cfg.OnInsert != nil {
		hookErr = g.cfg.OnInsert(b)
	}
	waiting := g.waiters[ref]
	delete(g.waiters, ref)
	for _, wref := range waiting {
		if wb := g.pending[wref]; wb != nil {
			g.tryInsert(wb)
		}
	}
	return hookErr
}

// markInvalid records an unvalidatable reference and transitively poisons
// pending blocks that reference it. A poisoned block is removed from the
// pending buffer and from every waiter list it registered on — its other
// missing predecessors may never arrive, and without the purge those
// entries (and the FWD retry state for predecessors nobody else waits on)
// would leak under a byzantine flood.
func (g *Gossip) markInvalid(ref block.Ref) {
	g.rememberInvalid(ref)
	delete(g.missing, ref)
	if wb := g.pending[ref]; wb != nil {
		delete(g.pending, ref)
		g.purgeWaiterEntries(wb, ref)
	}
	waiting := g.waiters[ref]
	delete(g.waiters, ref)
	for _, wref := range waiting {
		if g.pending[wref] != nil {
			g.cfg.Metrics.Add(metrics.BlocksRejected, 1)
			g.markInvalid(wref)
		}
	}
}

// purgeWaiterEntries removes wref from the waiter list of every
// predecessor of wb. A predecessor left with no waiters also loses its
// FWD retry state: nobody needs it anymore, so re-requesting it would be
// wasted traffic (it is re-armed if a future block references it).
func (g *Gossip) purgeWaiterEntries(wb *block.Block, wref block.Ref) {
	for _, p := range wb.Preds {
		ws, ok := g.waiters[p]
		if !ok {
			continue
		}
		kept := ws[:0]
		for _, w := range ws {
			if w != wref {
				kept = append(kept, w)
			}
		}
		if len(kept) == 0 {
			delete(g.waiters, p)
			delete(g.missing, p)
		} else {
			g.waiters[p] = kept
		}
	}
}

// rememberInvalid adds ref to the bounded invalid cache, evicting the
// oldest remembered reference when the cap is exceeded.
func (g *Gossip) rememberInvalid(ref block.Ref) {
	if _, dup := g.invalid[ref]; dup {
		return
	}
	g.invalid[ref] = struct{}{}
	g.invalidFIFO = append(g.invalidFIFO, ref)
	for len(g.invalid) > invalidCacheSize {
		delete(g.invalid, g.invalidFIFO[g.invalidHead])
		g.invalidHead++
	}
	// Compact the FIFO once the dead prefix dominates, so the backing
	// array does not grow without bound either.
	if g.invalidHead > len(g.invalidFIFO)/2 && g.invalidHead > 0 {
		g.invalidFIFO = append(g.invalidFIFO[:0:0], g.invalidFIFO[g.invalidHead:]...)
		g.invalidHead = 0
	}
}

// InsertVerified inserts a block that arrived outside the gossip
// exchange with its builder and signature already checked by the caller —
// the sync channel's pulls (syncsvc.Pull verifies every streamed block
// against the roster before handing it over). The block takes exactly the
// path a gossiped block takes after its signature check: structural
// validation and insertion into the DAG, a reference in the next own
// block, the OnInsert hook (persistence, interpretation), and waking any
// pending blocks that were waiting on it. Outstanding FWD retry state
// for the block is dropped — the point of pulling: the backlog arrives in
// bulk before the per-block retry timers burn round trips.
//
// A block already in the DAG is a no-op. A block the DAG refuses (a
// predecessor missing — a stream is expected in topological order — or
// the parent rule broken) is returned as the error and leaves everything
// untouched. Otherwise the returned error is the OnInsert hook's (a
// persist failure), mirroring received-block semantics: the block stays
// inserted and interpreted, and the shim latches the health problem.
func (g *Gossip) InsertVerified(b *block.Block) error {
	ref := b.Ref()
	if g.cfg.DAG.Contains(ref) {
		return nil
	}
	if err := g.cfg.DAG.InsertVerified(b); err != nil {
		return fmt.Errorf("gossip: insert verified block %v: %w", ref, err)
	}
	delete(g.missing, ref)
	delete(g.pending, ref)
	defer g.publishState()
	return g.noteInserted(b)
}

// handleFwd answers a forwarding request (lines 12–13): if we hold the
// block, send it to the requester. Requests from banned peers die at the
// send gate.
func (g *Gossip) handleFwd(from types.ServerID, ref block.Ref) {
	b, ok := g.cfg.DAG.Get(ref)
	if !ok {
		return
	}
	g.cfg.Metrics.Add(metrics.FwdRequestsServed, 1)
	g.send(from, EncodeBlockMsg(b))
}

// onEquivocation is the DAG's fork-detection callback (installed by New):
// export the pair as a transferable proof and run the acceptance pipeline
// — pool, ban, persist, relay.
func (g *Gossip) onEquivocation(e dag.Equivocation) {
	g.cfg.Metrics.Add(metrics.EquivocationsSeen, 1)
	b1, b2, ok := g.cfg.DAG.EquivocationBlocks(e)
	if !ok {
		// The pair is recorded at insert time, so both blocks are held;
		// only a capped-out proof list could lose one. The builder's
		// conviction then already happened.
		return
	}
	g.acceptEvidence(evidence.New(b1, b2), g.self)
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
	if g.convicted.Has(p.Equivocator()) {
		return // already convicted; skip the two signature verifications
	}
	if p.Verify(g.cfg.Roster) != nil {
		g.cfg.Scores.Penalize(from, peerscore.BadEvidence)
		return
	}
	g.acceptEvidence(p, from)
}

// Convict retains a verified proof and bans its equivocator, reporting
// whether the conviction is new. It neither persists nor relays: it is the
// whole of replaying a journaled proof at startup, and the first half of
// acceptEvidence.
func (g *Gossip) Convict(p *evidence.Proof) bool {
	if !g.convicted.Add(p) {
		return false
	}
	g.cfg.Metrics.Add(metrics.EvidenceReceived, 1)
	if g.cfg.Scores.Ban(p.Equivocator()) {
		g.cfg.Metrics.Add(metrics.PeersBanned, 1)
	}
	return true
}

// acceptEvidence runs the accountability pipeline for a verified proof:
// retain it (one per equivocator — a duplicate conviction ends here,
// which is what terminates the relay flood), ban the equivocator,
// persist through OnEvidence, and relay once to every peer that might
// not know — everyone but self, the peer it came from, the equivocator,
// and the already-banned.
func (g *Gossip) acceptEvidence(p *evidence.Proof, from types.ServerID) {
	if !g.Convict(p) {
		return
	}
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
// the disseminated block. If the OnInsert hook reports the block was not
// safely persisted, the broadcast is withheld (the block must not be
// externalized before it is durable) and an error is returned; chain
// state still advances past the block, which remains local-only.
func (g *Gossip) Disseminate() (*block.Block, error) {
	var reqs []block.Request
	if g.cfg.Requests != nil {
		reqs = g.cfg.Requests.Next(g.cfg.MaxBatch)
	}
	preds := make([]block.Ref, 0, 1+len(g.curTips))
	if g.curParent != nil {
		preds = append(preds, *g.curParent)
	}
	preds = append(preds, g.curTips...)
	b := block.New(g.self, g.curSeq, preds, reqs)
	if err := b.Seal(g.cfg.Signer); err != nil {
		return nil, fmt.Errorf("gossip: seal block: %w", err)
	}
	if err := g.cfg.DAG.InsertVerified(b); err != nil {
		// Only possible if our own bookkeeping broke (e.g. the DAG
		// was mutated behind our back): surface loudly.
		return nil, fmt.Errorf("gossip: insert own block: %w", err)
	}
	g.cfg.Metrics.Add(metrics.BlocksBuilt, 1)
	g.cfg.Metrics.Add(metrics.OwnBlockRefs, int64(len(preds)))
	hookErr := g.noteInserted(b)
	g.publishState()

	if hookErr == nil {
		g.cfg.Metrics.Add(metrics.RequestsEmbedded, int64(len(reqs)))
		enc := EncodeBlockMsg(b)
		for _, id := range g.cfg.Roster.IDs() {
			if id == g.self {
				continue
			}
			g.send(id, enc)
		}
	} else if len(reqs) > 0 {
		// The block carrying these requests will never reach a peer; put
		// them back in the buffer they came from rather than lose them.
		g.cfg.Requests.Requeue(reqs)
	}

	// Chain state has advanced (noteInserted) even when the broadcast is
	// withheld: the block is in the local DAG, so the next own block — if
	// the owner ever disseminates again — must not reuse its sequence
	// number.
	if hookErr != nil {
		// The own block failed to persist, so it was not broadcast: no
		// peer can ever see this sequence number, and a post-crash
		// restart that lost the block cannot equivocate by reusing it.
		return nil, fmt.Errorf("gossip: block %v withheld, not safely persisted: %w", b.Ref(), hookErr)
	}
	return b, nil
}

// Tick re-issues FWD requests for references still missing after
// ResendAfter (the Δ_B' timer the paper assumes). After FwdFallbackAfter
// unanswered attempts the request is broadcast to every server. Retries
// go out in reference order, not in the map's: a seeded run must send the
// same sequence every time.
func (g *Gossip) Tick(now time.Duration) {
	var due []block.Ref
	for ref, ms := range g.missing {
		if now-ms.lastAsk >= ResendAfter {
			due = append(due, ref)
		}
	}
	slices.SortFunc(due, func(a, b block.Ref) int { return bytes.Compare(a[:], b[:]) })
	for _, ref := range due {
		ms := g.missing[ref]
		ms.lastAsk = now
		ms.attempts++
		if ms.attempts >= FwdFallbackAfter {
			// Broadcast fallback: frame the FWD request once per ref, not
			// once per peer — the payload is identical for every recipient.
			enc := EncodeFwdMsg(ref)
			for _, id := range g.cfg.Roster.IDs() {
				if id == g.self {
					continue
				}
				g.cfg.Metrics.Add(metrics.FwdRequestsSent, 1)
				g.send(id, enc)
			}
			continue
		}
		g.sendFwd(ms.askFrom, ref)
	}
}

func (g *Gossip) sendFwd(to types.ServerID, ref block.Ref) {
	if to == g.self {
		return
	}
	g.cfg.Metrics.Add(metrics.FwdRequestsSent, 1)
	g.send(to, EncodeFwdMsg(ref))
}

// send transmits one gossip payload. All of Algorithm 1's traffic rides
// transport.ChanGossip, whose fire-and-forget Send carries exactly the
// Assumption 1 semantics the algorithm's proofs rely on — for correct
// servers. Banned peers forfeit that service: every path (dissemination,
// FWD service, FWD requests, retry fallback, evidence relay) dies here,
// so a proven equivocator gets nothing further from this server.
func (g *Gossip) send(to types.ServerID, payload []byte) {
	if g.cfg.Scores.Banned(to) {
		return
	}
	g.cfg.Metrics.Add(metrics.WireMessages, 1)
	g.cfg.Metrics.Add(metrics.WireBytes, int64(len(payload)))
	g.cfg.Transport.Send(to, transport.ChanGossip, payload)
}
