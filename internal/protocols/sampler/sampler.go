// Package sampler implements a randomized probe protocol used to
// demonstrate the paper's Section 7 de-randomization extension.
//
// The protocol's original form uses server-local randomness: on request,
// a server samples k random distinct peers, probes them, and indicates
// once all k acknowledged — the random peer sampling at the heart of
// gossip/sampling-based designs. Embedded in a block DAG, the "coin
// flips" come from the deterministic entropy the interpreter derives from
// the requesting block's reference (protocol.EntropyAware): unpredictable
// before the block exists, identical for every interpreter — so
// Lemma 4.2 (every server computes the same simulation) survives the
// randomness.
//
// The indication carries the sampled peer set, which tests use to verify
// both determinism across interpreters and variability across blocks.
package sampler

import (
	"fmt"
	"math/rand"
	"sort"

	"blockdag/internal/crypto"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Message kinds.
const (
	msgProbe byte = 1
	msgAck   byte = 2
)

// Protocol is the sampler protocol factory. The zero value is ready.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "sampler" }

// NewProcess implements protocol.Protocol.
func (Protocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &process{cfg: cfg, acks: make(map[types.ServerID]struct{})}
}

// EncodeRequest builds a request to probe k random peers.
func EncodeRequest(k int) []byte {
	w := wire.NewWriter(4)
	w.Uvarint(uint64(k))
	return w.Bytes()
}

// DecodeIndication parses an indication into the sampled peers.
func DecodeIndication(ind []byte) ([]types.ServerID, error) {
	r := wire.NewReader(ind)
	n := r.Count(1 << 16)
	peers := make([]types.ServerID, n)
	for i := range peers {
		peers[i] = types.ServerID(r.Uint16())
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("sampler: decode indication: %w", err)
	}
	return peers, nil
}

type process struct {
	cfg     protocol.Config
	entropy [32]byte
	sampled []types.ServerID
	acks    map[types.ServerID]struct{}
	done    bool
	pending [][]byte
}

var _ protocol.Process = (*process)(nil)
var _ protocol.EntropyAware = (*process)(nil)

// SetEntropy implements protocol.EntropyAware: the interpreter installs
// the per-(block, label) seed before the block's steps run.
func (p *process) SetEntropy(seed [32]byte) { p.entropy = seed }

// Request implements "probe k random peers". The sample is drawn from a
// PRNG seeded by the block-derived entropy — the de-randomized coin.
func (p *process) Request(data []byte) []protocol.Message {
	if p.sampled != nil {
		return nil // sample once per instance
	}
	r := wire.NewReader(data)
	k := int(r.Uvarint())
	if r.Close() != nil || k <= 0 || k >= p.cfg.N {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(
		uint64(p.entropy[0])<<56 | uint64(p.entropy[1])<<48 |
			uint64(p.entropy[2])<<40 | uint64(p.entropy[3])<<32 |
			uint64(p.entropy[4])<<24 | uint64(p.entropy[5])<<16 |
			uint64(p.entropy[6])<<8 | uint64(p.entropy[7]))))
	peers := make([]types.ServerID, 0, p.cfg.N-1)
	for i := 0; i < p.cfg.N; i++ {
		if types.ServerID(i) != p.cfg.Self {
			peers = append(peers, types.ServerID(i))
		}
	}
	rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	p.sampled = peers[:k]
	sort.Slice(p.sampled, func(i, j int) bool { return p.sampled[i] < p.sampled[j] })

	msgs := make([]protocol.Message, 0, k)
	for _, peer := range p.sampled {
		msgs = append(msgs, protocol.Unicast(p.cfg, peer, []byte{msgProbe}))
	}
	return msgs
}

// Receive implements the probe/ack handlers.
func (p *process) Receive(m protocol.Message) []protocol.Message {
	if len(m.Payload) != 1 {
		return nil
	}
	switch m.Payload[0] {
	case msgProbe:
		return []protocol.Message{protocol.Unicast(p.cfg, m.Sender, []byte{msgAck})}
	case msgAck:
		if p.sampled == nil || p.done {
			return nil
		}
		for _, peer := range p.sampled {
			if peer == m.Sender {
				p.acks[m.Sender] = struct{}{}
			}
		}
		if len(p.acks) == len(p.sampled) {
			p.done = true
			w := wire.NewWriter(2 + 2*len(p.sampled))
			w.Uvarint(uint64(len(p.sampled)))
			for _, peer := range p.sampled {
				w.Uint16(uint16(peer))
			}
			p.pending = append(p.pending, w.Bytes())
		}
	}
	return nil
}

// Indications implements protocol.Process.
func (p *process) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

// Done implements protocol.Process; a sampler instance never retires:
// having indicated its own sample it still owes an ACK to whichever server
// probes it under the same label later.
func (p *process) Done() bool { return false }

// StateDigest implements protocol.Process. The entropy is part of the
// digest: it is state the interpreter installed deterministically.
func (p *process) StateDigest() []byte {
	w := wire.NewWriter(64)
	w.Bytes32(p.entropy)
	w.Bool(p.done)
	w.Uvarint(uint64(len(p.sampled)))
	for _, peer := range p.sampled {
		w.Uint16(uint16(peer))
	}
	ids := make([]int, 0, len(p.acks))
	for id := range p.acks {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Uint16(uint16(id))
	}
	w.Uvarint(uint64(len(p.pending)))
	for _, v := range p.pending {
		w.VarBytes(v)
	}
	sum := crypto.Hash(w.Bytes())
	return sum[:]
}
