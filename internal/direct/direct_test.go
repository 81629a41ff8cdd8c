package direct

import (
	"bytes"
	"testing"

	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

func newBRBCluster(t *testing.T, n int) (*Cluster, *simnet.Network) {
	t.Helper()
	net := simnet.New(simnet.WithSeed(5))
	c, err := NewCluster(brb.Protocol{}, n,
		func(id types.ServerID) transport.Transport { return net.Transport(id) },
		func(id types.ServerID, ep transport.Endpoint) { net.Register(id, transport.ChanGossip, ep) },
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	return c, net
}

func TestDirectBRBDelivers(t *testing.T) {
	c, net := newBRBCluster(t, 4)
	c.Servers[0].Request("ℓ", []byte("42"))
	net.Run()
	for i := 0; i < 4; i++ {
		got := c.Delivered(i, "ℓ")
		if len(got) != 1 || !bytes.Equal(got[0], []byte("42")) {
			t.Fatalf("server %d delivered %q", i, got)
		}
	}
}

// TestDirectMaterializesAllMessages: the baseline really pays for every
// message: a 4-server BRB broadcast costs ~3 fan-outs of 3 remote messages
// per server (ECHO from everyone, READY from everyone), each signed.
func TestDirectMaterializesAllMessages(t *testing.T) {
	c, net := newBRBCluster(t, 4)
	var sigs crypto.Counters
	c.Roster.SetCounters(&sigs)
	// Re-create signers picking up counters (LocalRoster signers were
	// built before SetCounters): sign/verify counts flow through roster
	// verify only; signing is counted per server signer. Simplest: count
	// wire messages via metrics instead, and verifies via roster.
	c.Servers[0].Request("ℓ", []byte("42"))
	net.Run()

	var wireMsgs, materialized int64
	for _, m := range c.Metrics {
		wireMsgs += m.Get(metrics.WireMessages)
		materialized += m.Get(metrics.MsgsMaterialized)
	}
	// Every server fans out ECHO (3 remote) and READY (3 remote): 4
	// servers × 6 = 24 remote messages — each broadcast record a process
	// emits is dispatched as the n messages it stands for.
	if wireMsgs != 24 || materialized != 24 {
		t.Fatalf("wire messages = %d, materialized = %d, want 24 each", wireMsgs, materialized)
	}
	if got := sigs.Get(crypto.Verified); got != 24 {
		t.Fatalf("signature verifications = %d, want 24 (one per wire message)", got)
	}
}

func TestDirectTamperedMessageRejected(t *testing.T) {
	c, net := newBRBCluster(t, 4)
	// Craft a legitimate envelope from server 1 and tamper with it.
	m := protocol.Message{Label: "ℓ", Sender: 1, Receiver: 0, Payload: []byte{1, 2}}
	payload := c.Servers[1].seal(m)
	payload[len(payload)-1] ^= 0xff
	c.Servers[0].Deliver(1, payload)
	net.Run()
	if got := c.Delivered(0, "ℓ"); len(got) != 0 {
		t.Fatalf("tampered message caused deliveries: %q", got)
	}
}

func TestDirectForgedSenderRejected(t *testing.T) {
	c, net := newBRBCluster(t, 4)
	// Server 1 signs a message claiming sender 2.
	m := protocol.Message{Label: "ℓ", Sender: 2, Receiver: 0, Payload: []byte{1}}
	payload := c.Servers[1].seal(m) // signs with 1's key over a sender-2 message
	c.Servers[0].Deliver(1, payload)
	net.Run()
	// The message must be rejected: signature verifies against the
	// claimed sender (2), not the actual signer (1).
	if got := c.Delivered(0, "ℓ"); len(got) != 0 {
		t.Fatalf("forged sender accepted: %q", got)
	}
}

func TestDirectWrongReceiverDropped(t *testing.T) {
	c, _ := newBRBCluster(t, 4)
	m := protocol.Message{Label: "ℓ", Sender: 1, Receiver: 2, Payload: []byte{1}}
	payload := c.Servers[1].seal(m)
	c.Servers[0].Deliver(1, payload) // misrouted
	if got := c.Delivered(0, "ℓ"); len(got) != 0 {
		t.Fatalf("misrouted message processed: %q", got)
	}
}

func TestDirectMalformedPayloadIgnored(t *testing.T) {
	c, _ := newBRBCluster(t, 4)
	c.Servers[0].Deliver(1, []byte{0xff, 0xee})
	c.Servers[0].Deliver(1, nil)
	if got := c.Delivered(0, "ℓ"); len(got) != 0 {
		t.Fatalf("malformed payloads caused deliveries: %q", got)
	}
}

func TestDirectConfigValidation(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	good := Config{
		Signer: signers[0], Roster: roster,
		Protocol: brb.Protocol{}, Transport: net.Transport(0),
	}
	if _, err := NewServer(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"signer":    func(c *Config) { c.Signer = nil },
		"roster":    func(c *Config) { c.Roster = nil },
		"protocol":  func(c *Config) { c.Protocol = nil },
		"transport": func(c *Config) { c.Transport = nil },
	} {
		bad := good
		mutate(&bad)
		if _, err := NewServer(bad); err == nil {
			t.Errorf("config without %s accepted", name)
		}
	}
}
