// Package brb implements byzantine reliable broadcast — the paper's worked
// example P (Section 5) — as authenticated double-echo broadcast after
// Cachin–Guerraoui–Rodrigues [3, Module 3.12], reproduced in the paper's
// Algorithm 4.
//
// Interface I: requests Rqsts = {broadcast(v)}, indications
// Inds = {deliver(v)}. Messages M = {ECHO v, READY v}.
//
// Properties P (validity, no duplication, integrity, consistency,
// totality) are proved for the protocol over an authenticated perfect
// point-to-point link; Theorem 5.1 transfers them to the embedding, which
// the integration tests in internal/core verify.
//
// The protocol is deterministic: state plus received message sequence
// fully determine behaviour, as the embedding requires.
//
// An instance is small on purpose: the interpreter keeps one per live
// (chain, label) pair for as long as the label lives, so quorum counting
// uses one bitset of senders per value seen — in the honest case a single
// tally holding two machine words — instead of a map of maps.
package brb

import (
	"fmt"
	"math/bits"
	"sort"

	"blockdag/internal/crypto"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Message kinds carried in protocol.Message payloads.
const (
	msgEcho  byte = 1
	msgReady byte = 2
)

// Protocol is the byzantine reliable broadcast protocol factory. The zero
// value is ready to use.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "brb" }

// NewProcess implements protocol.Protocol.
func (Protocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &process{cfg: cfg}
}

// process is one BRB process instance (Algorithm 4 state): the flags
// echoed, readied, delivered, plus per-value quorum counting.
type process struct {
	cfg       protocol.Config
	echoed    bool
	readied   bool
	delivered bool

	// tallies holds one entry per distinct value seen, in first-seen
	// order: correct servers agree on one value, and every further value
	// costs a byzantine server an equivocating block.
	tallies []tally

	pending [][]byte // delivered values not yet drained by Indications
}

var _ protocol.Process = (*process)(nil)

// tally records the distinct senders from which an ECHO v / READY v has
// been received (quorums count distinct servers).
type tally struct {
	value   string
	echoes  senderSet
	readies senderSet
}

// senderSet is a bitset over server ids: ids below 64 live in lo, so
// systems of up to 64 servers never allocate; hi grows on demand.
type senderSet struct {
	lo uint64
	hi []uint64
}

func (s *senderSet) add(id types.ServerID) {
	if id < 64 {
		s.lo |= 1 << id
		return
	}
	word := int(id)/64 - 1
	for len(s.hi) <= word {
		s.hi = append(s.hi, 0)
	}
	s.hi[word] |= 1 << (id % 64)
}

func (s senderSet) count() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// ids appends the members in ascending order.
func (s senderSet) ids(dst []types.ServerID) []types.ServerID {
	word := func(base int, w uint64) {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, types.ServerID(base+bits.TrailingZeros64(w)))
		}
	}
	word(0, s.lo)
	for i, w := range s.hi {
		word(64*(i+1), w)
	}
	return dst
}

// tallyFor returns the tally of value, adding it on first sight.
func (p *process) tallyFor(value []byte) *tally {
	for i := range p.tallies {
		if p.tallies[i].value == string(value) {
			return &p.tallies[i]
		}
	}
	p.tallies = append(p.tallies, tally{value: string(value)})
	return &p.tallies[len(p.tallies)-1]
}

func encodePayload(kind byte, value []byte) []byte {
	w := wire.NewWriter(1 + len(value))
	w.Byte(kind)
	w.VarBytes(value)
	return w.Bytes()
}

func decodePayload(data []byte) (kind byte, value []byte, err error) {
	r := wire.NewReader(data)
	kind = r.Byte()
	value = r.VarBytes()
	if err := r.Close(); err != nil {
		return 0, nil, fmt.Errorf("brb: decode payload: %w", err)
	}
	if kind != msgEcho && kind != msgReady {
		return 0, nil, fmt.Errorf("brb: unknown message kind %d", kind)
	}
	return kind, value, nil
}

// Request implements broadcast(v) (Algorithm 4 lines 3–5): set echoed and
// send ECHO v to every server. Authentication of the request is inherited
// from the block signature that carried it (paper Section 5). A repeated
// or post-echo request is ignored — the instance broadcasts at most once.
func (p *process) Request(data []byte) []protocol.Message {
	if p.echoed {
		return nil
	}
	p.echoed = true
	return protocol.FanOut(p.cfg, encodePayload(msgEcho, data))
}

// Receive implements the three message handlers of Algorithm 4 lines 6–17.
// Malformed payloads (only byzantine servers produce them — correct
// messages are materialized from correct interpretation) are dropped.
func (p *process) Receive(m protocol.Message) []protocol.Message {
	kind, value, err := decodePayload(m.Payload)
	if err != nil {
		return nil
	}
	var out []protocol.Message
	t := p.tallyFor(value)
	switch kind {
	case msgEcho:
		// Record the echo (distinct senders only).
		t.echoes.add(m.Sender)

		// Lines 6–8: first ECHO triggers our own echo.
		if !p.echoed {
			p.echoed = true
			out = p.send(out, msgEcho, value)
		}
		// Lines 9–11: 2f+1 echoes for v trigger READY v.
		if !p.readied && t.echoes.count() >= p.cfg.Quorum() {
			p.readied = true
			out = p.send(out, msgReady, value)
		}
	case msgReady:
		t.readies.add(m.Sender)
		readies := t.readies.count()

		// Lines 12–14: f+1 readies amplify to our own READY.
		if readies >= p.cfg.F+1 && !p.readied {
			p.readied = true
			out = p.send(out, msgReady, value)
		}
		// Lines 15–17: 2f+1 readies deliver v.
		if readies >= p.cfg.Quorum() && !p.delivered {
			p.delivered = true
			p.pending = append(p.pending, append([]byte(nil), value...))
		}
	}
	return out
}

// send adds kind(value), addressed to every server, to the messages a
// step emits.
func (p *process) send(out []protocol.Message, kind byte, value []byte) []protocol.Message {
	msgs := protocol.FanOut(p.cfg, encodePayload(kind, value))
	if out == nil {
		return msgs
	}
	return append(out, msgs...)
}

// Indications implements protocol.Process.
func (p *process) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

// Done reports whether the instance has delivered; a delivered BRB
// instance never emits again except to help laggards, so retiring it is
// safe for the GC extension (totality for other correct servers relies on
// their own quorums, which exist in the DAG independently of this state).
func (p *process) Done() bool { return p.delivered }

// Clone implements protocol.Process with a deep copy.
func (p *process) Clone() protocol.Process {
	cp := *p
	cp.tallies = append([]tally(nil), p.tallies...)
	for i := range cp.tallies {
		t := &cp.tallies[i]
		t.echoes.hi = append([]uint64(nil), t.echoes.hi...)
		t.readies.hi = append([]uint64(nil), t.readies.hi...)
	}
	cp.pending = nil
	for _, v := range p.pending {
		cp.pending = append(cp.pending, append([]byte(nil), v...))
	}
	return &cp
}

// StateDigest implements protocol.Process with a canonical serialization:
// per-value sender sets are emitted in sorted order so equal states hash
// equally.
func (p *process) StateDigest() []byte {
	w := wire.NewWriter(64)
	w.Bool(p.echoed)
	w.Bool(p.readied)
	w.Bool(p.delivered)
	sorted := append([]tally(nil), p.tallies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].value < sorted[j].value })
	digestSets(w, sorted, func(t tally) senderSet { return t.echoes })
	digestSets(w, sorted, func(t tally) senderSet { return t.readies })
	w.Uvarint(uint64(len(p.pending)))
	for _, v := range p.pending {
		w.VarBytes(v)
	}
	sum := crypto.Hash(w.Bytes())
	return sum[:]
}

// digestSets writes one kind's sets: the values with at least one sender
// of that kind, each followed by its sender ids in ascending order.
func digestSets(w *wire.Writer, sorted []tally, set func(tally) senderSet) {
	nonEmpty := 0
	for _, t := range sorted {
		if set(t).count() > 0 {
			nonEmpty++
		}
	}
	w.Uvarint(uint64(nonEmpty))
	var ids []types.ServerID
	for _, t := range sorted {
		ids = set(t).ids(ids[:0])
		if len(ids) == 0 {
			continue
		}
		w.String(t.value)
		w.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.Uint16(uint16(id))
		}
	}
}
