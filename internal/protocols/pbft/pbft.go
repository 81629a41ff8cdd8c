// Package pbft implements a deterministic single-shot PBFT core — the
// three-phase pre-prepare/prepare/commit pattern of Castro–Liskov [4] that
// Blockmania [7] embeds into its block DAG, here reduced to its
// deterministic essence so it satisfies the paper's requirements on P.
//
// Each protocol instance (label) decides at most one value. The leader of
// an instance is derived deterministically from the label. There is no
// view change: view changes need timeouts, which are non-deterministic;
// the paper defers timing machinery (Section 7, partial synchrony
// extension). Consequently:
//
//   - Safety (agreement, integrity) holds unconditionally: no two correct
//     servers decide different values, even with an equivocating leader.
//   - Termination holds when the instance's leader is correct.
//
// This mirrors Blockmania's per-block consensus instances driven by DAG
// structure rather than timers.
package pbft

import (
	"fmt"
	"sort"

	"blockdag/internal/crypto"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Message kinds.
const (
	msgPrePrepare byte = 1
	msgPrepare    byte = 2
	msgCommit     byte = 3
)

// Protocol is the PBFT protocol factory. The zero value is ready to use.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "pbft" }

// NewProcess implements protocol.Protocol.
func (Protocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &process{
		cfg:      cfg,
		prepares: make(map[string]map[types.ServerID]struct{}),
		commits:  make(map[string]map[types.ServerID]struct{}),
	}
}

// Leader returns the instance leader for a label in a system of n
// servers: a stable hash of the label modulo n, so every server derives
// the same leader with no communication.
func Leader(label types.Label, n int) types.ServerID {
	sum := crypto.Hash([]byte(label))
	v := uint64(sum[0])<<24 | uint64(sum[1])<<16 | uint64(sum[2])<<8 | uint64(sum[3])
	return types.ServerID(v % uint64(n))
}

type process struct {
	cfg protocol.Config

	prePrepared []byte // value from the leader's pre-prepare, nil if none
	prepared    bool
	committed   bool
	decided     bool

	// prepares[digest] / commits[digest] record distinct senders.
	prepares map[string]map[types.ServerID]struct{}
	commits  map[string]map[types.ServerID]struct{}

	pending [][]byte
}

var _ protocol.Process = (*process)(nil)

func encodePayload(kind byte, value []byte) []byte {
	w := wire.NewWriter(1 + wire.VarBytesLen(len(value)))
	w.Byte(kind)
	w.VarBytes(value)
	return w.Bytes()
}

// decodePayload parses a payload; value is a view of data, which is
// immutable (package protocol).
func decodePayload(data []byte) (kind byte, value []byte, err error) {
	r := wire.NewReader(data)
	kind = r.Byte()
	value = r.VarBytesView()
	if err := r.Close(); err != nil {
		return 0, nil, fmt.Errorf("pbft: decode payload: %w", err)
	}
	if kind < msgPrePrepare || kind > msgCommit {
		return 0, nil, fmt.Errorf("pbft: unknown message kind %d", kind)
	}
	return kind, value, nil
}

func digest(value []byte) string {
	sum := crypto.Hash(value)
	return string(sum[:])
}

// Request implements propose(v). Only the instance leader's process acts
// on a request; other servers' requests for the instance are ignored.
func (p *process) Request(data []byte) []protocol.Message {
	if p.cfg.Self != Leader(p.cfg.Label, p.cfg.N) {
		return nil
	}
	if p.prePrepared != nil {
		return nil // a correct leader proposes once
	}
	return p.handlePrePrepare(p.cfg.Self, data)
}

// Receive implements the three phase handlers.
func (p *process) Receive(m protocol.Message) []protocol.Message {
	kind, value, err := decodePayload(m.Payload)
	if err != nil {
		return nil
	}
	switch kind {
	case msgPrePrepare:
		// Only the leader may pre-prepare.
		if m.Sender != Leader(p.cfg.Label, p.cfg.N) {
			return nil
		}
		return p.handlePrePrepare(m.Sender, value)
	case msgPrepare:
		return p.handleQuorum(p.prepares, m.Sender, value, p.phasePrepared)
	case msgCommit:
		return p.handleQuorum(p.commits, m.Sender, value, p.phaseCommitted)
	}
	return nil
}

// handlePrePrepare accepts the first pre-prepared value and broadcasts a
// PREPARE for its digest. Later conflicting pre-prepares from an
// equivocating leader are ignored (first-wins is deterministic because
// the interpreter feeds messages in <M order).
func (p *process) handlePrePrepare(from types.ServerID, value []byte) []protocol.Message {
	if p.prePrepared != nil {
		return nil
	}
	p.prePrepared = value
	var out []protocol.Message
	if from == p.cfg.Self {
		// The leader's own pre-prepare is sent to everyone else and
		// processed locally as an implicit prepare vote.
		out = append(out, protocol.FanOut(p.cfg, encodePayload(msgPrePrepare, value)))
	}
	if !p.prepared {
		p.prepared = true
		out = append(out, protocol.FanOut(p.cfg, encodePayload(msgPrepare, value)))
	}
	return out
}

// phasePrepared fires when 2f+1 PREPAREs for one digest are collected.
func (p *process) phasePrepared(value []byte) []protocol.Message {
	if p.committed {
		return nil
	}
	p.committed = true
	return []protocol.Message{protocol.FanOut(p.cfg, encodePayload(msgCommit, value))}
}

// phaseCommitted fires when 2f+1 COMMITs for one digest are collected.
func (p *process) phaseCommitted(value []byte) []protocol.Message {
	if p.decided {
		return nil
	}
	p.decided = true
	p.pending = append(p.pending, value)
	return nil
}

func (p *process) handleQuorum(
	votes map[string]map[types.ServerID]struct{},
	from types.ServerID,
	value []byte,
	onQuorum func([]byte) []protocol.Message,
) []protocol.Message {
	d := digest(value)
	set := votes[d]
	if set == nil {
		set = make(map[types.ServerID]struct{})
		votes[d] = set
	}
	set[from] = struct{}{}
	if len(set) >= p.cfg.Quorum() {
		return onQuorum(value)
	}
	return nil
}

// Indications implements protocol.Process; each decided value is
// indicated exactly once.
func (p *process) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

// Done implements protocol.Process: a decided instance is dropped. It
// indicates nothing more, and the 2f+1 COMMITs it counted were each sent to
// every server, so no other server's decision waits for anything this one
// might still have emitted.
func (p *process) Done() bool { return p.decided }

// StateDigest implements protocol.Process with canonical (sorted)
// serialization of all state.
func (p *process) StateDigest() []byte {
	w := wire.NewWriter(128)
	w.Bool(p.prePrepared != nil)
	w.VarBytes(p.prePrepared)
	w.Bool(p.prepared)
	w.Bool(p.committed)
	w.Bool(p.decided)
	digestVotes(w, p.prepares)
	digestVotes(w, p.commits)
	w.Uvarint(uint64(len(p.pending)))
	for _, v := range p.pending {
		w.VarBytes(v)
	}
	sum := crypto.Hash(w.Bytes())
	return sum[:]
}

func digestVotes(w *wire.Writer, votes map[string]map[types.ServerID]struct{}) {
	keys := make([]string, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		ids := make([]int, 0, len(votes[k]))
		for id := range votes[k] {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		w.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.Uint16(uint16(id))
		}
	}
}
