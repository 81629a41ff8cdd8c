package courier

import (
	"bytes"
	"testing"

	"blockdag/internal/protocol"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

func cfg(self int) protocol.Config {
	return protocol.Config{Self: types.ServerID(self), Label: "c", N: 4, F: 1}
}

func TestRequestEmitsSingleUnicast(t *testing.T) {
	p := Protocol{}.NewProcess(cfg(1))
	out := p.Request(EncodeRequest(3, []byte("hi")))
	if len(out) != 1 {
		t.Fatalf("Request emitted %d messages, want 1", len(out))
	}
	m := out[0]
	if m.Sender != 1 || m.Receiver != 3 || !bytes.Equal(m.Payload, []byte("hi")) {
		t.Fatalf("message = %+v", m)
	}
}

func TestReceiveIndicatesSenderAndPayload(t *testing.T) {
	p := Protocol{}.NewProcess(cfg(3))
	p.Receive(protocol.Message{Label: "c", Sender: 1, Receiver: 3, Payload: []byte("hi")})
	inds := p.Indications()
	if len(inds) != 1 {
		t.Fatalf("indications = %d, want 1", len(inds))
	}
	r := wire.NewReader(inds[0])
	from, data := types.ServerID(r.Uint16()), r.VarBytes()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if from != 1 || !bytes.Equal(data, []byte("hi")) {
		t.Fatalf("indication = (%v, %q)", from, data)
	}
	if len(p.Indications()) != 0 {
		t.Fatal("indications not drained")
	}
}

func TestMalformedRequestIgnored(t *testing.T) {
	p := Protocol{}.NewProcess(cfg(0))
	if out := p.Request([]byte{0x01}); out != nil {
		t.Fatalf("malformed request emitted %v", out)
	}
	// Receiver out of range.
	if out := p.Request(EncodeRequest(9, []byte("x"))); out != nil {
		t.Fatalf("out-of-range receiver emitted %v", out)
	}
}

func TestNeverDone(t *testing.T) {
	p := Protocol{}.NewProcess(cfg(0))
	p.Receive(protocol.Message{Label: "c", Sender: 1, Receiver: 0, Payload: []byte("a")})
	if p.Done() {
		t.Fatal("courier instance reported Done")
	}
}

func TestIndicationRoundTripProperty(t *testing.T) {
	p := Protocol{}.NewProcess(cfg(2))
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("long"), 100)}
	for _, payload := range payloads {
		out := p.Request(EncodeRequest(0, payload))
		if len(out) != 1 || !bytes.Equal(out[0].Payload, payload) {
			t.Fatalf("payload %q did not round trip through request", payload)
		}
	}
}
