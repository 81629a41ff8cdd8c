// Package courier implements a minimal deterministic protocol used to test
// the reliable point-to-point link abstraction that interpreting a block
// DAG provides (paper Lemma 4.3).
//
// A request carries (receiver, payload); the sender's process emits a
// single MSG to that receiver; the receiver's process indicates
// (sender, payload) on receipt. Courier adds no quorums, retries, or
// state beyond a delivery log, so every observable behaviour of an
// embedded courier instance is a direct observation of the link:
// reliable delivery, no duplication, and authenticity map one-to-one
// onto courier indications.
package courier

import (
	"blockdag/internal/protocol"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Protocol is the courier protocol factory. The zero value is ready to use.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "courier" }

// NewProcess implements protocol.Protocol.
func (Protocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &process{cfg: cfg}
}

// EncodeRequest builds a courier request payload: deliver data to the
// given receiver.
func EncodeRequest(to types.ServerID, data []byte) []byte {
	w := wire.NewWriter(2 + wire.VarBytesLen(len(data)))
	w.Uint16(uint16(to))
	w.VarBytes(data)
	return w.Bytes()
}

type process struct {
	cfg     protocol.Config
	sent    uint64
	recvd   uint64
	pending [][]byte
}

var _ protocol.Process = (*process)(nil)

// Request implements protocol.Process: send the embedded payload to the
// embedded receiver.
func (p *process) Request(data []byte) []protocol.Message {
	r := wire.NewReader(data)
	to := types.ServerID(r.Uint16())
	payload := r.VarBytesView() // the message is a view of the request
	if r.Close() != nil || int(to) >= p.cfg.N {
		return nil
	}
	p.sent++
	return []protocol.Message{protocol.Unicast(p.cfg, to, payload)}
}

// Receive implements protocol.Process: indicate (sender, payload).
func (p *process) Receive(m protocol.Message) []protocol.Message {
	p.recvd++
	w := wire.NewWriter(2 + wire.VarBytesLen(len(m.Payload)))
	w.Uint16(uint16(m.Sender))
	w.VarBytes(m.Payload)
	p.pending = append(p.pending, w.Bytes())
	return nil
}

// Indications implements protocol.Process.
func (p *process) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

// Done implements protocol.Process; a courier instance never retires.
func (p *process) Done() bool { return false }

// StateDigest implements protocol.Process.
func (p *process) StateDigest() []byte {
	w := wire.NewWriter(32)
	w.Uint64(p.sent)
	w.Uint64(p.recvd)
	w.Uvarint(uint64(len(p.pending)))
	for _, v := range p.pending {
		w.VarBytes(v)
	}
	return w.Bytes()
}
