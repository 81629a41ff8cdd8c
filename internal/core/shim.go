// Package core implements shim(P) — Algorithm 3 of the paper and the
// framework's primary public surface.
//
// A Server composes the two independent halves of the block DAG framework:
//
//   - gossip (Algorithm 1), which builds the joint block DAG by exchanging
//     blocks over the network, and
//   - interpret (Algorithm 2), which deterministically simulates the
//     embedded protocol P over the local DAG,
//
// behind P's own interface: the user calls Request(ℓ, r) and receives
// indications for ℓ, exactly as if talking to P over a real network.
// Theorem 5.1: this composition preserves P's interface and all safety and
// liveness properties whose proofs rely on the authenticated perfect
// point-to-point link abstraction. The integration tests in this package
// check the theorem's claims for byzantine reliable broadcast and PBFT, and
// internal/direct holds shim(P)'s indications against a direct run of P.
// An instance of P is kept until it reports Done (protocol.Process.Done),
// always: a Server's memory follows the labels in flight plus a small
// residue per finished one (docs/ARCHITECTURE.md, "Interpreter memory model").
//
// A Server is a deterministic state machine: Deliver, Request,
// Disseminate, and Tick must be called from one goroutine at a time
// (package node provides the concurrent runtime; package simnet drives
// whole clusters deterministically).
package core

import (
	"errors"
	"fmt"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/gossip"
	"blockdag/internal/interpret"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/protocol"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Config assembles a Server.
type Config struct {
	// Roster is the fixed set of servers Srvrs. Required.
	Roster *crypto.Roster
	// Signer holds this server's identity and signing key. Required.
	Signer *crypto.Signer
	// Protocol is the deterministic BFT protocol P to embed. Required.
	Protocol protocol.Protocol
	// Transport connects to the other servers. Required.
	Transport transport.Transport
	// Clock supplies the current time for retry bookkeeping. Required.
	Clock func() time.Duration
	// OnIndication receives every indication (ℓ, i) of this server's own
	// simulated instance — Algorithm 3 lines 8–9. The value may be a view
	// of a message the interpreter retains: read it or keep it, but copy
	// before writing to it. Optional.
	OnIndication func(label types.Label, value []byte)

	// Mempool is the rqsts buffer of Algorithm 3 line 2, as a production
	// ingestion pool: deduplication, per-request validation, backpressure
	// on Submit, and byte-budgeted FIFO drains into blocks
	// (gossip.RequestSource). Nil means a pool with the default limits
	// (mempool.Options{}). The pool is volatile: queued requests do not
	// survive a restart.
	Mempool *mempool.Pool
	// Scores carries per-peer misbehaviour signals and the server's
	// convictions: the proof behind each ban. A deployment shares one scorer
	// between the server, its transport and its sync service, so every
	// layer sees the same verdicts (package deploy does); nil means a
	// scorer of the server's own.
	Scores *peerscore.Scorer

	// Metrics, optional.
	Metrics *metrics.Metrics
	// CompressReferences is ignored.
	//
	// Deprecated: a reference always includes its ancestry (gossip cites
	// parent and tips, interpret reads the ancestry a block adds); there is
	// no other mode to select. The field exists only because the frozen
	// bench/cluster.go assigns it, and goes when bench/ drops that line
	// and dagbench's -compress flag.
	CompressReferences bool
}

// Server is one server running shim(P).
type Server struct {
	self   types.ServerID
	cfg    Config
	dag    *dag.DAG
	gsp    *gossip.Gossip
	interp *interpret.Interpreter

	// indObservers fan the own-simulation indication stream out beyond
	// Config.OnIndication — the seam the node runtime's indication broker
	// (and through it, the client gateway) hooks into.
	indObservers []func(label types.Label, value []byte)

	// journal makes blocks and convictions durable (SetJournal, which sets
	// journalSet; until then the volatile journal keeps the blocks in RAM)
	// and answers for the blocks the DAG releases. persist is
	// journal.PersistSink(self), made once rather than per inserted block.
	journal    Journal
	journalSet bool
	persist    func(*block.Block) error

	// firstErr records the first internal invariant violation (never
	// expected; exposed for diagnosis rather than panicking).
	firstErr error
}

var _ transport.Endpoint = (*Server)(nil)

// NewServer wires gossip and interpret around a shared DAG and request
// buffer (Algorithm 3 lines 2–5). Every server has the same shape: a
// mempool and a peer scorer, which holds its convictions, are always there
// (Mempool, Scores), defaulted when the config leaves them out.
func NewServer(cfg Config) (*Server, error) {
	switch {
	case cfg.Roster == nil:
		return nil, errors.New("core: config needs a Roster")
	case cfg.Signer == nil:
		return nil, errors.New("core: config needs a Signer")
	case cfg.Protocol == nil:
		return nil, errors.New("core: config needs a Protocol")
	case cfg.Transport == nil:
		return nil, errors.New("core: config needs a Transport")
	case cfg.Clock == nil:
		return nil, errors.New("core: config needs a Clock")
	}
	if cfg.Mempool == nil {
		cfg.Mempool = mempool.New(mempool.Options{})
	}
	if cfg.Scores == nil {
		cfg.Scores = peerscore.New()
	}
	s := &Server{self: cfg.Signer.ID(), cfg: cfg, dag: dag.New(cfg.Roster)}
	s.useJournal(&volatile{})

	// One numbering a server: the interpreter keeps its states by the DAG's.
	s.interp = interpret.New(
		cfg.Protocol,
		cfg.Roster.N(),
		cfg.Roster.F(),
		s.onIndication,
		interpret.WithMetrics(cfg.Metrics),
		interpret.Over(s.dag),
	)

	gsp, err := gossip.New(gossip.Config{
		Signer:     cfg.Signer,
		Roster:     cfg.Roster,
		DAG:        s.dag,
		Requests:   cfg.Mempool,
		Transport:  cfg.Transport,
		OnInsert:   s.onInsert,
		Clock:      cfg.Clock,
		Metrics:    cfg.Metrics,
		Scores:     cfg.Scores,
		OnEvidence: s.onEvidence,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.gsp = gsp
	return s, nil
}

// ID returns this server's identity.
func (s *Server) ID() types.ServerID { return s.self }

// Now reads Config.Clock — the one clock a runtime driving this server
// paces its timers on, so retry bookkeeping and the caller's schedule
// cannot disagree about what time it is.
func (s *Server) Now() time.Duration { return s.cfg.Clock() }

// Roster and Transport expose the server's wiring to the runtime, whose
// live follower polls the same peers over the same links.
func (s *Server) Roster() *crypto.Roster         { return s.cfg.Roster }
func (s *Server) Transport() transport.Transport { return s.cfg.Transport }

// Request implements Algorithm 3 lines 6–7: buffer (ℓ, r) for inclusion in
// the next block. The request's journey: rqsts → block (Algorithm 1
// line 15) → every server's DAG → every server's interpretation
// (Algorithm 2 line 6) → indications.
//
// Request keeps Algorithm 3's fire-and-forget signature: it is Submit with
// the admission verdict dropped. Client-facing callers use Submit.
func (s *Server) Request(label types.Label, data []byte) {
	_ = s.Submit(label, data)
}

// Submit admits one request to the mempool and reports the verdict — nil,
// mempool.ErrFull, mempool.ErrDuplicate or a validation error
// (mempool.ErrTooLarge, mempool.ErrEmptyLabel) — for the gateway to surface
// to its client. The pool is safe for concurrent use, so unlike the rest of
// the server Submit and Request may be called from any goroutine.
func (s *Server) Submit(label types.Label, data []byte) error {
	return s.cfg.Mempool.Submit(label, data)
}

// Mempool returns the server's ingestion pool; never nil. The pool is safe
// for concurrent use, so gateways may call Submit/Stats on it directly from
// client goroutines.
func (s *Server) Mempool() *mempool.Pool { return s.cfg.Mempool }

// Deliver implements transport.Endpoint by feeding gossip.
func (s *Server) Deliver(from types.ServerID, payload []byte) {
	s.gsp.HandleMessage(from, payload)
}

// DeliverBatch feeds gossip a burst of wire payloads with the signature
// checks amortized across cores (gossip.HandleMessages). State transitions
// are identical to calling Deliver once per message in order; the node
// runtime uses this to drain its inbound queue when delivery outpaces
// handling.
//
// The burst is bracketed in one group-commit window of the journal
// (SetJournal): every block the burst inserts is journaled with one write
// and one fsync decision instead of one pair per block. Own blocks never
// ride a delivery batch (only Disseminate builds them), so the own-block
// durability barrier in the persist sink is unaffected; deferring received
// blocks' writes to the end of the burst is the same durability class as
// the store's interval-fsync lag. A flush failure is latched into Health,
// exactly like a per-block persist failure.
func (s *Server) DeliverBatch(msgs []gossip.Message) {
	s.journal.BeginBatch()
	s.gsp.HandleMessages(msgs)
	if err := s.journal.FlushBatch(); err != nil && s.firstErr == nil {
		s.firstErr = fmt.Errorf("core: flush persist batch: %w", err)
	}
}

// Disseminate implements Algorithm 3 lines 10–11: seal and broadcast the
// current block, which it returns. The caller controls pacing — the paper
// leaves it to the implementation; package node's schedule decides when.
//
// An unhealthy server refuses to disseminate: once a persist (or other
// internal) error is latched, building further blocks that could not be
// journaled would leave the whole own chain suffix non-durable, so block
// production stops until the operator restarts the server over a working
// store. Delivering, interpreting, and serving FWD requests continue.
func (s *Server) Disseminate() (*block.Block, error) {
	if s.firstErr != nil {
		return nil, fmt.Errorf("core: disseminate on unhealthy server: %w", s.firstErr)
	}
	return s.gsp.Disseminate()
}

// Tick re-asks for what buffered blocks still miss, on Config.Clock, and
// reports whether there was any (gossip.Gossip.Tick): evidence of lag.
func (s *Server) Tick() (reasked bool) { return s.gsp.Tick() }

// Heard returns when a peer's block last arrived, on Config.Clock (zero
// before the first).
func (s *Server) Heard() time.Duration { return s.gsp.Heard() }

// OwnSeen returns one above the highest sequence number of an own block a
// peer sent (gossip.Gossip.OwnSeen).
func (s *Server) OwnSeen() uint64 { return s.gsp.OwnSeen() }

// onInsert chains every inserted block into the interpreter: building the
// DAG and interpreting it stay logically decoupled (the dotted line in the
// paper's Figure 1) but share the insertion feed, which is a topological
// order and hence eligible. The returned persist error tells gossip the
// block is not durable, so the broadcast of an own block is withheld.
// Received blocks are interpreted even when their persist failed — the
// embedded protocol's state must advance identically on every correct
// server whatever the local disk does; an own block that failed to
// persist is not interpreted, because it is withheld from the network
// and absent from the journal, so neither a peer nor a post-restart self
// will ever hold it — indications from it would describe state the
// cluster never reaches. Nothing ever references the skipped block (the
// own chain halts with the latched error), so the interpreter's feed
// stays a valid topological order without it.
func (s *Server) onInsert(b *block.Block) error {
	perr := s.persist(b)
	if perr != nil {
		perr = fmt.Errorf("core: persist block %v: %w", b.Ref(), perr)
		if s.firstErr == nil {
			s.firstErr = perr
		}
		if b.Builder == s.self {
			return perr
		}
	}
	if err := s.interp.AddBlock(b); err != nil && s.firstErr == nil {
		// Insertion order guarantees eligibility; an error here means
		// an invariant was broken, not a runtime condition.
		s.firstErr = fmt.Errorf("core: interpret block %v: %w", b.Ref(), err)
	}
	if s.firstErr == nil {
		// What every chain has read leaves RAM — for as long as the
		// journal has taken every block so far.
		s.dag.Release(s.interp.Frontier())
	}
	return perr
}

// onEvidence is gossip's evidence-persistence hook: journal the proof and
// latch a failure as a health problem — losing durability for a ban matters
// (a restart would forget it), but the in-memory conviction and its relay
// proceed regardless.
func (s *Server) onEvidence(p *evidence.Proof) error {
	if err := s.journal.AppendEvidence(p); err != nil {
		err = fmt.Errorf("core: persist evidence against %v: %w", p.Equivocator(), err)
		if s.firstErr == nil {
			s.firstErr = err
		}
		return err
	}
	return nil
}

// Scores exposes the peer scorer, which holds the server's convictions:
// Config.Scores, or the server's own.
func (s *Server) Scores() *peerscore.Scorer { return s.cfg.Scores }

// onIndication filters interpretation indications down to this server's
// own simulation (Algorithm 3 line 8: s' = s) and hands them to the user.
func (s *Server) onIndication(ind interpret.Indication) {
	if ind.Server != s.self {
		return
	}
	if s.cfg.OnIndication != nil {
		s.cfg.OnIndication(ind.Label, ind.Value)
	}
	for _, fn := range s.indObservers {
		fn(ind.Label, ind.Value)
	}
}

// AddIndicationObserver registers an additional observer of this server's
// own indication stream, called after Config.OnIndication on the same
// (single driving) goroutine. Like SetJournal it must be installed before
// any block enters the server, so no indication can slip past the
// observer — and unlike Config.OnIndication it may be installed before
// Restore, so replayed indications are observed too (the node runtime
// does exactly that to seed its broker's replay index).
func (s *Server) AddIndicationObserver(fn func(label types.Label, value []byte)) error {
	if fn == nil {
		return errors.New("core: nil indication observer")
	}
	if s.dag.Len() > 0 {
		return errors.New("core: indication observer added after blocks were inserted")
	}
	s.indObservers = append(s.indObservers, fn)
	return nil
}

// SeedBase installs pruned-history stand-ins (dag.SeedBase) into a fresh
// server — the DAG and the interpreter — so a later Restore or
// snapshot-followed catch-up can validate and interpret blocks above the
// prune horizon without the pruned prefix, and the own chain continues
// above its stand-in (the DAG's own chain head) even when every own block
// lies below the horizon. It must run before Restore and before any network
// traffic.
func (s *Server) SeedBase(base []dag.Base) error {
	if s.dag.Len() > 0 || len(s.dag.Base()) > 0 {
		return errors.New("core: seed base on a server that already has state")
	}
	if err := s.dag.SeedBase(base); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := s.interp.SeedBase(base); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Restore replays persisted blocks into a freshly constructed server —
// the crash-recovery path of the paper's Section 7 discussion, fed by
// package store's log. It is the server's first absorb, with the disk as
// the peer: one batch signature check over the log, then every block
// enters the live DAG the way a pulled one does (AbsorbVerified) — the
// structural checks of Definition 3.3, the journal (which knows the blocks
// it read from disk by their place in this order), a place among the next
// own block's parent and tips, interpretation. There is no second validator
// and no state re-derived afterwards: the next disseminated block continues
// the old chain and cites the tips no pre-crash own block reaches because
// gossip advanced both per block, as it does live. FWD and retry bookkeeping
// start empty, so any block that was in flight (or lost with an unsynced WAL
// tail) is simply re-received or re-requested from peers.
//
// No-self-equivocation has a precondition: the replayed blocks must
// include every own block any peer may have seen, since the resumed
// chain continues from the highest replayed own sequence number. The
// store guarantees this when the pre-crash server journaled through
// store.Store.PersistSink, which makes own blocks durable before gossip
// broadcasts them; only received blocks can be lost with an unsynced
// tail, and those are refetched.
//
// Restore must be called on a fresh server, before any network traffic,
// request, or dissemination. The first block refused — builder outside
// the roster (dag.ErrBuilderUnknown: the wrong roster for this log), bad
// signature (dag.ErrBadSignature: a damaged log), a predecessor missing —
// is the error, and the blocks before it stay absorbed and interpreted: a
// failed Restore is not retryable on the same server; build a new one.
//
// This is the authoritative statement of the recovery delivery contract:
// interpretation replays all indications of the stored DAG, so users see
// pre-crash deliveries again. Indications are therefore at-least-once
// across crashes, exactly-once only between them; applications
// deduplicate by instance label (as cluster's Example_payments does).
func (s *Server) Restore(blocks []*block.Block) error {
	if s.dag.Len() > 0 {
		return errors.New("core: restore on a server that already has blocks")
	}
	sigOK := block.VerifyBatch(s.cfg.Roster, blocks, 0)
	for i, b := range blocks {
		// VerifyBatch fails a builder outside the roster too; that one is
		// left to the DAG, which reports the membership failure.
		var err error
		if !sigOK[i] && s.cfg.Roster.Contains(b.Builder) {
			err = dag.ErrBadSignature
		} else {
			err = s.gsp.InsertVerified(b)
		}
		if err != nil {
			return fmt.Errorf("core: restore block %v: %w", b.Ref(), err)
		}
	}
	return s.firstErr
}

// AbsorbVerified feeds the server one block obtained outside the gossip
// exchange whose builder and signature the caller has already checked
// against the roster — the sync channel's one way in (package node pulls a
// peer's delta stream, syncsvc.Pull checks the signatures; the follower's
// polls, its first one included, and simulated recovery alike). The block takes
// the path a gossiped block takes once its signature verified: the DAG's
// structural checks, the journal (SetJournal), a place among the next own
// block's tips, interpretation, and the release of gossip-buffered blocks
// waiting on it — minus the FWD round trips.
//
// Call it from the goroutine driving this server. An already-held block
// is a no-op. The error is one of two failures. The DAG refused the block
// (a predecessor missing, the parent rule broken): the serving peer's
// fault, nothing changed, and the block is not in the DAG afterwards —
// which is how the caller tells. Or the block went in and persisting it
// failed: local trouble, latched in Health, and — as with received blocks
// — the block stays interpreted, since its builder externalized it.
func (s *Server) AbsorbVerified(b *block.Block) error {
	return s.gsp.InsertVerified(b)
}

// Journal is the backend behind a server's blocks; store.Store implements
// it. PersistSink(self) journals every block inserted into the DAG (own and
// received alike) before the block is interpreted — before any indication
// it causes becomes user-visible, and, for own blocks, durably before gossip
// broadcasts them: the write-ahead discipline that keeps a post-crash
// restart from self-equivocating. The sink is handed every block once, in the
// DAG's order from its first (call k is the DAG's block k): all a journal needs
// to tell the blocks it holds, back through Restore, from new ones. Block(k,
// preds) reads that block back (dag.Journal): the DAG releases a block every
// chain has read and the journal answers for its bytes from then on, handed
// the predecessors the block's row keeps; the DAG checks the reference.
// BeginBatch/FlushBatch are the group-commit window DeliverBatch brackets
// its bursts with (see store.BeginBatch for the durability contract). Evidence returns the proofs journaled so far,
// verified on load; AppendEvidence journals a newly accepted one.
type Journal interface {
	PersistSink(self types.ServerID) func(*block.Block) error
	Block(row int, preds []block.Ref) (*block.Block, error)
	BeginBatch()
	FlushBatch() error
	Evidence() []*evidence.Proof
	AppendEvidence(*evidence.Proof) error
}

// volatile is the Journal of a server nobody gave one: it keeps every block
// the DAG releases — all of them, in RAM — and no evidence.
type volatile struct{ blocks []*block.Block }

func (v *volatile) PersistSink(types.ServerID) func(*block.Block) error {
	return func(b *block.Block) error {
		v.blocks = append(v.blocks, b)
		return nil
	}
}
func (v *volatile) Block(row int, _ []block.Ref) (*block.Block, error) {
	if row >= len(v.blocks) {
		return nil, fmt.Errorf("core: no block %d", row)
	}
	return v.blocks[row], nil
}
func (*volatile) BeginBatch()                          {}
func (*volatile) FlushBatch() error                    { return nil }
func (*volatile) Evidence() []*evidence.Proof          { return nil }
func (*volatile) AppendEvidence(*evidence.Proof) error { return nil }

// SetJournal makes the server durable — the one hook node.Config.Store
// uses, since the node receives an already-built Server. It must be called
// before any block is inserted, Restore's replay included, so no insertion
// can slip past the journal; the store's sink skips the blocks replayed
// from it. The proofs the journal already holds are replayed into the
// scorer — ban, but no re-persist, no relay and no count: a restored
// conviction is neither a received proof nor a new ban — so a ban survives
// a crash/restart even when the proof's blocks never made it into the
// replayable DAG, and holds from the first delivery on. (A deployed node's
// scorer holds them already: package deploy seeds it from the same head.)
//
// A persist error marks the server unhealthy (Health), withholds the
// broadcast of the own block it failed on, and stops further dissemination
// (Disseminate refuses on an unhealthy server) — but it does not stop
// interpretation: the embedded protocol's state must advance identically
// on every correct server regardless of local disk trouble. A proof that
// fails to journal is latched the same way and stays accepted.
func (s *Server) SetJournal(j Journal) error {
	if s.journalSet {
		return errors.New("core: journal already set")
	}
	if s.dag.Len() > 0 {
		return errors.New("core: journal set after blocks were inserted")
	}
	s.useJournal(j)
	s.journalSet = true
	for _, p := range j.Evidence() {
		s.cfg.Scores.Convict(p)
	}
	return nil
}

// useJournal makes j the server's journal: the persist sink, and what
// answers for the blocks the DAG releases.
func (s *Server) useJournal(j Journal) {
	s.journal, s.persist = j, j.PersistSink(s.self)
	s.dag.SetJournal(j)
}

// DAG exposes the server's block DAG for offline interpretation,
// visualization, and persistence. Treat as read-only.
func (s *Server) DAG() *dag.DAG { return s.dag }

// Interpreter exposes the online interpreter for inspection of message
// buffers and state digests. Treat as read-only.
func (s *Server) Interpreter() *interpret.Interpreter { return s.interp }

// Counts returns the server's counters, read over metrics.Families (nil if
// no metrics were configured).
func (s *Server) Counts() *metrics.Metrics { return s.cfg.Metrics }

// ChainUnread returns, per builder, how many blocks of the other chains that
// builder's chain has not read as far as this server's interpreter knows —
// the replica that is behind, and what holds interpreter memory (zeros
// without metrics). Safe from any goroutine, like Counts.
func (s *Server) ChainUnread() []int64 { return s.interp.ChainUnread() }

// Health returns the first internal invariant violation, if any.
func (s *Server) Health() error { return s.firstErr }

// OfflineInterpreter builds a fresh interpreter and an empty DAG for
// offline replay of stored blocks — the paper's decoupling of DAG
// maintenance from later interpretation. Insert decoded blocks into the
// DAG (which re-validates them) and call InterpretDAG; onInd observes the
// indications of every simulated server.
func OfflineInterpreter(
	roster *crypto.Roster,
	proto protocol.Protocol,
	onInd func(server types.ServerID, label types.Label, value []byte),
	opts ...interpret.Option,
) (*interpret.Interpreter, *dag.DAG, error) {
	if roster == nil {
		return nil, nil, errors.New("core: offline interpreter needs a roster")
	}
	if proto == nil {
		return nil, nil, errors.New("core: offline interpreter needs a protocol")
	}
	d := dag.New(roster)
	it := interpret.New(proto, roster.N(), roster.F(), func(ind interpret.Indication) {
		if onInd != nil {
			onInd(ind.Server, ind.Label, ind.Value)
		}
	}, append(opts, interpret.Over(d))...)
	return it, d, nil
}
