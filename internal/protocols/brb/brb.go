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
// (chain, label) pair until that chain delivers (Done), so quorum counting
// uses one bitset of senders per value seen — in the honest case a single
// tally holding two machine words — instead of a map of maps. It holds no
// copy of the value either: payloads are immutable (package protocol), so a
// tally's value and a delivered value are views of a received payload, and
// an ECHO v or READY v answered with the same message re-emits the payload
// it was handed.
package brb

import (
	"bytes"
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
	value   []byte // view of the first payload that carried it
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
		if bytes.Equal(p.tallies[i].value, value) {
			return &p.tallies[i]
		}
	}
	p.tallies = append(p.tallies, tally{value: value})
	return &p.tallies[len(p.tallies)-1]
}

func encodePayload(kind byte, value []byte) []byte {
	w := wire.NewWriter(1 + wire.VarBytesLen(len(value)))
	w.Byte(kind)
	w.VarBytes(value)
	return w.Bytes()
}

// decodePayload parses a payload; value is a view of data.
func decodePayload(data []byte) (kind byte, value []byte, err error) {
	r := wire.NewReader(data)
	kind = r.Byte()
	value = r.VarBytesView()
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
	return []protocol.Message{protocol.FanOut(p.cfg, encodePayload(msgEcho, data))}
}

// Receive implements the three message handlers of Algorithm 4 lines 6–17.
// Malformed payloads (only byzantine servers produce them — correct
// messages are materialized from correct interpretation) are dropped.
func (p *process) Receive(m protocol.Message) []protocol.Message {
	kind, value, err := decodePayload(m.Payload)
	if err != nil {
		return nil
	}
	// send adds k(value), addressed to every server, to the messages this
	// step emits. Answering in kind, the message to send is the one just
	// received: its payload is emitted again instead of a copy (a payload
	// that decodes is the one encoding of its value; wire.ErrNonMinimal).
	var out []protocol.Message
	send := func(k byte) {
		payload := m.Payload
		if k != kind {
			payload = encodePayload(k, value)
		}
		out = append(out, protocol.FanOut(p.cfg, payload))
	}
	t := p.tallyFor(value)
	switch kind {
	case msgEcho:
		// Record the echo (distinct senders only).
		t.echoes.add(m.Sender)

		// Lines 6–8: first ECHO triggers our own echo.
		if !p.echoed {
			p.echoed = true
			send(msgEcho)
		}
		// Lines 9–11: 2f+1 echoes for v trigger READY v.
		if !p.readied && t.echoes.count() >= p.cfg.Quorum() {
			p.readied = true
			send(msgReady)
		}
	case msgReady:
		t.readies.add(m.Sender)
		readies := t.readies.count()

		// Lines 12–14: f+1 readies amplify to our own READY.
		if readies >= p.cfg.F+1 && !p.readied {
			p.readied = true
			send(msgReady)
		}
		// Lines 15–17: 2f+1 readies deliver v.
		if readies >= p.cfg.Quorum() && !p.delivered {
			p.delivered = true
			p.pending = append(p.pending, value)
		}
	}
	return out
}

// Indications implements protocol.Process.
func (p *process) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

// Done reports whether the instance has delivered, which is when the
// interpreter drops it. The contract of protocol.Process.Done holds: a
// delivered instance indicates nothing more, it has sent its READY (2f+1
// readies for v include the f+1 that make it amplify), and the one thing
// it might still emit — its ECHO, had the readies overtaken every echo —
// no correct server needs: the 2f+1 servers whose READY it counted
// include f+1 correct ones, whose READY reaches everyone, makes every
// correct server amplify, and so gives each its own 2f+1.
func (p *process) Done() bool { return p.delivered }

// StateDigest implements protocol.Process with a canonical serialization:
// per-value sender sets are emitted in sorted order so equal states hash
// equally.
func (p *process) StateDigest() []byte {
	w := wire.NewWriter(64)
	w.Bool(p.echoed)
	w.Bool(p.readied)
	w.Bool(p.delivered)
	sorted := append([]tally(nil), p.tallies...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].value, sorted[j].value) < 0 })
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
		w.VarBytes(t.value)
		w.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.Uint16(uint16(id))
		}
	}
}
