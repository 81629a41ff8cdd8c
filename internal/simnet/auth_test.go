package simnet_test

import (
	"errors"
	"testing"

	"blockdag/internal/crypto"
	"blockdag/internal/roster"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// recorder collects deliveries.
type recorder struct {
	got []string
}

func (r *recorder) Deliver(_ types.ServerID, payload []byte) {
	r.got = append(r.got, string(payload))
}

// doneSink records a call's terminal error.
type doneSink struct {
	done bool
	err  error
}

func (s *doneSink) OnFrame([]byte)   {}
func (s *doneSink) OnDone(err error) { s.done, s.err = true, err }
func (s *doneSink) finished() bool   { return s.done }

// wrongKeyAuth claims a roster identity but proves with a fresh random
// key — the simulator twin of tcpnet's evil dialer.
func wrongKeyAuth(t *testing.T, fx *roster.Fixture, claim types.ServerID) transport.Authenticator {
	t.Helper()
	pair, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The impostor's own roster is the real one but for its entry, which
	// holds the key it proves with: it verifies every peer as they do.
	members := fx.File.Members()
	members[claim].PublicKey = pair.Public
	f, err := roster.New(members)
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Identity(roster.Key{ID: claim, Pair: pair}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return id.Auth()
}

// TestAuthSeam: the simulated network enforces the same Authenticator
// seam tcpnet does — proven links deliver, wrong-key and non-roster
// links drop with AuthRejects counted, and calls fail with ErrAuthFailed.
func TestAuthSeam(t *testing.T) {
	fx, err := roster.Dev(3)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := fx.Auths()
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	sink1 := &recorder{}
	net.Register(1, transport.ChanGossip, sink1)
	net.RegisterAuth(1, auths[1])
	net.RegisterAuth(0, auths[0])

	// A proven link delivers.
	net.Transport(0).Send(1, transport.ChanGossip, []byte("ok"))
	net.Run()
	if len(sink1.got) != 1 || sink1.got[0] != "ok" {
		t.Fatalf("proven delivery = %q", sink1.got)
	}

	// Server 2 claims its roster identity with the wrong private key:
	// every send drops, a call fails explicitly, and the rejection is
	// counted once (the failed link is cached like a refused
	// connection).
	net.RegisterAuth(2, wrongKeyAuth(t, fx, 2))
	net.Transport(2).Send(1, transport.ChanGossip, []byte("forged"))
	net.Transport(2).Send(1, transport.ChanGossip, []byte("forged again"))
	net.Run()
	if len(sink1.got) != 1 {
		t.Fatalf("forged payload delivered: %q", sink1.got)
	}
	if rej := net.Stats().AuthRejects; rej != 1 {
		t.Fatalf("AuthRejects = %d, want 1 (cached per link)", rej)
	}
	call := &doneSink{}
	net.Transport(2).Call(1, transport.ChanSync, []byte("req"), call)
	for !call.finished() && net.Step() {
	}
	if !errors.Is(call.err, transport.ErrAuthFailed) {
		t.Fatalf("call error = %v, want ErrAuthFailed", call.err)
	}
}

// TestAuthSeamHalfConfigured: a link where only one side authenticates
// is refused — mirroring tcpnet, which cannot complete a mutual
// handshake with an unauthenticated peer.
func TestAuthSeamHalfConfigured(t *testing.T) {
	fx, err := roster.Dev(2)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := fx.Auths()
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	sink1 := &recorder{}
	net.Register(1, transport.ChanGossip, sink1)
	net.RegisterAuth(1, auths[1])
	// Server 0 never registered an authenticator.
	net.Transport(0).Send(1, transport.ChanGossip, []byte("unproven"))
	net.Run()
	if len(sink1.got) != 0 {
		t.Fatalf("unauthenticated payload delivered: %q", sink1.got)
	}
	if net.Stats().AuthRejects != 1 {
		t.Fatalf("AuthRejects = %d, want 1", net.Stats().AuthRejects)
	}

	// Fixing the configuration invalidates the link's cached refusal:
	// once server 0 registers its authenticator, the next send
	// re-handshakes and delivers.
	net.RegisterAuth(0, auths[0])
	net.Transport(0).Send(1, transport.ChanGossip, []byte("now proven"))
	net.Run()
	if len(sink1.got) != 1 || sink1.got[0] != "now proven" {
		t.Fatalf("post-fix delivery = %q", sink1.got)
	}
}

// TestAuthSeamReauthenticatesAfterRestart: Deregister bumps the server
// generation, so a restarted server re-runs the handshake — a recovered
// server that lost its authenticator (or came back with the wrong key)
// does not ride the old link's cached verdict.
func TestAuthSeamReauthenticatesAfterRestart(t *testing.T) {
	fx, err := roster.Dev(2)
	if err != nil {
		t.Fatal(err)
	}
	auths, err := fx.Auths()
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	sink1 := &recorder{}
	net.Register(1, transport.ChanGossip, sink1)
	net.RegisterAuth(1, auths[1])
	net.RegisterAuth(0, auths[0])
	net.Transport(0).Send(1, transport.ChanGossip, []byte("before"))
	net.Run()
	if len(sink1.got) != 1 {
		t.Fatalf("pre-restart delivery = %q", sink1.got)
	}

	// Server 0 crashes and restarts as an impostor: the cached verdict
	// must not survive the generation bump.
	net.Deregister(0)
	net.RegisterAuth(0, wrongKeyAuth(t, fx, 0))
	net.Transport(0).Send(1, transport.ChanGossip, []byte("after"))
	net.Run()
	if len(sink1.got) != 1 {
		t.Fatalf("impostor delivery after restart: %q", sink1.got)
	}
	if net.Stats().AuthRejects != 1 {
		t.Fatalf("AuthRejects = %d, want 1", net.Stats().AuthRejects)
	}
}
