package interpret

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// The tests in this file pin the two contracts of package protocol as the
// interpreter keeps them: a broadcast held as one record is
// indistinguishable from the n messages it stands for, and nothing writes
// to a payload or a request once it has been handed over.

// chatter is a protocol made to mix both ways of addressing in one
// out-buffer, with the same payload: a request sends its data to server 1,
// to everyone, and to server 0, and whoever hears a payload for the first
// time passes it on to everyone and back to its sender. Each receiver thus
// finds the broadcast next to an identical unicast — which the in-buffer,
// being a set, must collapse — and every message received is indicated.
type chatter struct{}

func (chatter) Name() string { return "chatter" }

func (chatter) NewProcess(cfg protocol.Config) protocol.Process {
	return &chatterProcess{cfg: cfg}
}

type chatterProcess struct {
	cfg     protocol.Config
	heard   []byte
	pending [][]byte
}

func (p *chatterProcess) Request(data []byte) []protocol.Message {
	return []protocol.Message{
		protocol.Unicast(p.cfg, types.ServerID(1%p.cfg.N), data),
		protocol.FanOut(p.cfg, data),
		protocol.Unicast(p.cfg, 0, data),
	}
}

func (p *chatterProcess) Receive(m protocol.Message) []protocol.Message {
	first := len(p.heard) == 0
	entry := append([]byte{byte(m.Sender), byte(m.Receiver)}, m.Payload...)
	p.heard = append(p.heard, entry...)
	p.pending = append(p.pending, entry)
	if !first {
		return nil
	}
	return []protocol.Message{
		protocol.FanOut(p.cfg, m.Payload),
		protocol.Unicast(p.cfg, m.Sender, m.Payload),
	}
}

func (p *chatterProcess) Indications() [][]byte {
	out := p.pending
	p.pending = nil
	return out
}

func (p *chatterProcess) Done() bool { return len(p.heard) > 12 }

func (p *chatterProcess) StateDigest() []byte { return p.heard }

// unicastOnly wraps a protocol so that no instance emits a broadcast
// record: each is replaced by the n messages it stands for, which is how
// protocol.FanOut used to build it.
type unicastOnly struct{ protocol.Protocol }

func (p unicastOnly) NewProcess(cfg protocol.Config) protocol.Process {
	return &unicastOnlyProcess{Process: p.Protocol.NewProcess(cfg), n: cfg.N}
}

type unicastOnlyProcess struct {
	protocol.Process
	n int
}

func (p *unicastOnlyProcess) Request(data []byte) []protocol.Message {
	return protocol.Expand(p.Process.Request(data), p.n)
}

func (p *unicastOnlyProcess) Receive(m protocol.Message) []protocol.Message {
	return protocol.Expand(p.Process.Receive(m), p.n)
}

// forkedDAGs returns the DAGs the tests below run over: random deep ones
// in which server 0 equivocates, and the hand-built double fork of
// TestForkAfterAdvance.
func forkedDAGs() (dags []*dag.DAG, labels [][]types.Label) {
	for seed := int64(1); seed <= 5; seed++ {
		d, l := buildDeepForkedDAG(rand.New(rand.NewSource(seed)), 4, 100)
		dags, labels = append(dags, d), append(labels, l)
	}
	h, l, _ := forkAfterAdvanceDAG()
	return append(dags, h.DAG), append(labels, l)
}

// TestBroadcastEquivalence: interpreting with broadcasts held as one record
// and with every broadcast emitted as n unicasts gives the same out-buffers
// (as OutMessages reports them), in-buffers, state digests and the same
// indications in the same order — over forked DAGs, in arrival orders that
// make either side replay, for BRB and for a
// protocol that mixes both forms.
func TestBroadcastEquivalence(t *testing.T) {
	dags, labelSets := forkedDAGs()
	for _, proto := range []protocol.Protocol{brb.Protocol{}, chatter{}} {
		for i, d := range dags {
			labels := labelSets[i]
			order := randomTopoOrder(d, rand.New(rand.NewSource(int64(i))))
			run := func(p protocol.Protocol) (*Interpreter, []Indication) {
				onInd, inds := collectInds()
				it := New(p, 4, 1, onInd)
				for _, b := range order {
					if err := it.AddBlock(b); err != nil {
						t.Fatal(err)
					}
				}
				return it, *inds
			}
			ctx := fmt.Sprintf("%s dag %d", proto.Name(), i)
			records, recordInds := run(proto)
			unicasts, unicastInds := run(unicastOnly{proto})
			if len(recordInds) == 0 {
				t.Fatalf("%s: nothing was indicated", ctx)
			}
			if len(recordInds) != len(unicastInds) {
				t.Fatalf("%s: %d indications vs %d", ctx, len(recordInds), len(unicastInds))
			}
			for j, a := range recordInds {
				b := unicastInds[j]
				if a.Label != b.Label || a.Server != b.Server || a.Block != b.Block || !bytes.Equal(a.Value, b.Value) {
					t.Fatalf("%s: indication %d differs: %+v vs %+v", ctx, j, a, b)
				}
			}
			agreeOn(t, d, labels, records, unicasts, ctx)
			broadcasts := 0
			for b := range d.All() {
				for _, label := range labels {
					if !equalMessages(records.InMessages(b.Ref(), label), unicasts.InMessages(b.Ref(), label)) {
						t.Fatalf("%s: in-buffer of %v / %s differs", ctx, b.Ref(), label)
					}
					_, st := records.at(b.Ref(), false) // its out-buffer as held, from the cache or a replay
					for _, m := range outFor(st.out, label) {
						if m.Receiver == protocol.Everyone {
							broadcasts++
						}
					}
					for _, m := range records.OutMessages(b.Ref(), label) {
						if m.Receiver == protocol.Everyone {
							t.Fatalf("%s: OutMessages of %v / %s reports a broadcast record", ctx, b.Ref(), label)
						}
					}
				}
			}
			if broadcasts == 0 {
				t.Fatalf("%s: no broadcast record was retained", ctx)
			}
		}
	}
}

// sealed is a byte slice with the hash it had when it was handed over.
type sealed struct {
	bytes []byte
	sum   [32]byte
}

// sealingProtocol wraps a protocol and seals every request it is given and
// every payload it emits.
type sealingProtocol struct {
	protocol.Protocol
	seals map[*byte]sealed
}

func (p sealingProtocol) seal(b []byte) {
	if len(b) > 0 {
		p.seals[&b[0]] = sealed{bytes: b, sum: crypto.Hash(b)}
	}
}

func (p sealingProtocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &sealingProcess{Process: p.Protocol.NewProcess(cfg), proto: p}
}

type sealingProcess struct {
	protocol.Process
	proto sealingProtocol
}

func (p *sealingProcess) sealAll(msgs []protocol.Message) []protocol.Message {
	for _, m := range msgs {
		p.proto.seal(m.Payload)
	}
	return msgs
}

func (p *sealingProcess) Request(data []byte) []protocol.Message {
	p.proto.seal(data)
	return p.sealAll(p.Process.Request(data))
}

func (p *sealingProcess) Receive(m protocol.Message) []protocol.Message {
	return p.sealAll(p.Process.Receive(m))
}

// TestPayloadsImmutable: every payload and every request is hashed when it
// is emitted; after a run that aliases them freely — BRB answering in kind,
// tallies and deliveries that are views, forks and inspection queries that
// replay history into fresh instances — every payload an out-buffer holds,
// cached or recomputed, is one of those, and every one of those still
// hashes as it did.
//
// The same holds one layer down and one up, frame → block → broker: a
// block's fields are views of its frame and an indicated value is a view of
// a payload, so every frame is hashed at insertion and every value where
// the broker would be handed it — in the run and in a restore, which
// decodes every block again out of one buffer shared by all of them (the
// most aliasing a reader could do; the store's gives each block a frame of
// its own) and interprets those — and all still hash as they did.
func TestPayloadsImmutable(t *testing.T) {
	dags, labelSets := forkedDAGs()
	for i, d := range dags {
		labels := labelSets[i]
		proto := sealingProtocol{Protocol: brb.Protocol{}, seals: make(map[*byte]sealed)}
		requests := make(map[*byte]sealed)
		var handed []sealed
		seal := func(b []byte) { handed = append(handed, sealed{bytes: b, sum: crypto.Hash(b)}) }
		toBroker := func(ind Indication) { seal(ind.Value) }
		var segment []byte
		for b := range d.All() {
			seal(b.Encode())
			segment = append(segment, b.Encode()...)
			for _, rq := range b.Requests {
				requests[&rq.Data[0]] = sealed{bytes: rq.Data, sum: crypto.Hash(rq.Data)}
			}
		}
		seal(segment)
		it := New(proto, 4, 1, toBroker)
		for _, b := range randomTopoOrder(d, rand.New(rand.NewSource(int64(i)))) {
			if err := it.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		for b := range d.All() {
			for _, label := range labels {
				it.StateDigest(b.Ref(), label)
				it.InMessages(b.Ref(), label)
				it.OutMessages(b.Ref(), label)
			}
		}

		ctx := fmt.Sprintf("dag %d", i)
		restored, delivered := New(proto, 4, 1, toBroker), len(handed)
		for b := range d.All() {
			n := b.EncodedSize()
			again, err := block.Decode(segment[:n:n])
			if err != nil {
				t.Fatal(err)
			}
			segment = segment[n:]
			if err := restored.AddBlock(again); err != nil {
				t.Fatal(err)
			}
		}
		if len(handed) == delivered {
			t.Fatalf("%s: the restore indicated nothing", ctx)
		}
		retained := 0
		for b := range d.All() {
			_, st := it.at(b.Ref(), false) // held, or recomputed by a replay: emitted through proto either way
			for _, m := range st.out {
				if _, ok := proto.seals[&m.Payload[0]]; !ok {
					t.Fatalf("%s: a retained payload was never emitted", ctx)
				}
				retained++
			}
		}
		if retained == 0 || len(proto.seals) <= len(requests) {
			t.Fatalf("%s: %d payloads retained, %d slices sealed", ctx, retained, len(proto.seals))
		}
		for _, group := range []map[*byte]sealed{proto.seals, requests} {
			for _, s := range group {
				handed = append(handed, s)
			}
		}
		for _, s := range handed {
			if crypto.Hash(s.bytes) != s.sum {
				t.Fatalf("%s: bytes handed over were written to afterwards", ctx)
			}
		}
	}
}
