package brb

import (
	"testing"

	"blockdag/internal/protocol"
	"blockdag/internal/types"
)

var cloneSink protocol.Process

// BenchmarkBRBClone measures copying a mid-protocol instance (n=4: four
// echoes and three readies recorded) — what the interpreter's rebuild path
// and the direct runtime pay per copy.
func BenchmarkBRBClone(b *testing.B) {
	cfg := protocol.Config{Self: 0, Label: "ℓ", N: 4, F: 1}
	p := Protocol{}.NewProcess(cfg)
	for s := 0; s < 4; s++ {
		for _, kind := range []byte{msgEcho, msgReady} {
			if kind == msgReady && s == 3 {
				continue
			}
			p.Receive(protocol.Message{Label: "ℓ", Sender: types.ServerID(s), Receiver: 0,
				Payload: encodePayload(kind, []byte("value"))})
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		cloneSink = p.Clone()
	}
}
