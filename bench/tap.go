package bench

import (
	"sync/atomic"

	"blockdag/internal/block"
	"blockdag/internal/gossip"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// The gossip envelope's kind byte is unexported; read it off frames the
// package's own encoders produce, so the tap cannot drift from the wire
// format.
var (
	kindBlock = gossip.EncodeBlockMsg(block.New(0, 0, nil, nil))[0]
	kindFwd   = gossip.EncodeFwdMsg(block.Ref{})[0]
)

// tap decorates every node's transport seam. Counting is always on and
// O(1) — the same two atomic adds in the untraced and the traced run —
// so wire_bytes_per_req is measured by identical code in both. Decoding
// frames into spans happens only while tracing is set.
type tap struct {
	frames, bytes atomic.Int64
	tracing       atomic.Bool
	tr            *tracer
}

// tapTransport is the Send side: it sits between core/gossip and tcpnet.
type tapTransport struct {
	transport.Transport
	tap *tap
	// last is the payload of the previous traced Send: Disseminate hands
	// the same frame to every peer back to back, and decoding it once is
	// enough. Only the owning node's loop goroutine sends.
	last      *byte
	lastBlock *block.Block
}

func (t *tap) transport(inner transport.Transport) transport.Transport {
	return &tapTransport{Transport: inner, tap: t}
}

func (d *tapTransport) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	d.tap.frames.Add(1)
	d.tap.bytes.Add(int64(len(payload)))
	if ch == transport.ChanGossip && len(payload) > 0 && d.tap.tracing.Load() {
		d.trace(to, payload)
	}
	d.Transport.Send(to, ch, payload)
}

func (d *tapTransport) trace(to types.ServerID, payload []byte) {
	switch payload[0] {
	case kindFwd:
		d.tap.tr.fwdSent()
	case kindBlock:
		first := d.last != &payload[0]
		if first {
			r := wire.NewReader(payload[1:])
			b, err := block.Decode(r.VarBytes())
			if err != nil {
				return
			}
			d.last, d.lastBlock = &payload[0], b
		}
		d.tap.tr.blockSent(d.Self(), to, d.lastBlock, first)
	}
}

// tapEndpoint is the Deliver side: it sits between tcpnet and the node.
type tapEndpoint struct {
	self  types.ServerID
	inner transport.Endpoint
	tap   *tap
}

func (t *tap) endpoint(self types.ServerID, inner transport.Endpoint) transport.Endpoint {
	return &tapEndpoint{self: self, inner: inner, tap: t}
}

func (e *tapEndpoint) Deliver(from types.ServerID, payload []byte) {
	if e.tap.tracing.Load() {
		if key, ok := peekBlock(payload); ok {
			e.tap.tr.blockDelivered(e.self, key)
		}
	}
	e.inner.Deliver(from, payload)
}

// peekBlock reads the builder and sequence number off a gossip block
// frame without decoding the block: kind byte, the envelope's and the
// block's length prefixes, then the signing body's first two fields.
func peekBlock(payload []byte) (blockKey, bool) {
	r := wire.NewReader(payload)
	if r.Byte() != kindBlock {
		return blockKey{}, false
	}
	r.Uvarint() // length of the encoded block
	r.Uvarint() // length of its signing body
	key := blockKey{builder: types.ServerID(r.Uint16()), seq: r.Uint64()}
	return key, r.Err() == nil
}
