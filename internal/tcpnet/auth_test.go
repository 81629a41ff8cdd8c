package tcpnet

import (
	"errors"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/peerscore"
	"blockdag/internal/roster"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// authFixture builds the dev fixture's authenticators for tests.
func authFixture(t *testing.T, n int) *roster.Fixture {
	t.Helper()
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func fixtureAuth(t *testing.T, fx *roster.Fixture, i int) transport.Authenticator {
	t.Helper()
	id, err := fx.Identity(i)
	if err != nil {
		t.Fatal(err)
	}
	return id.Auth()
}

// evilAuth claims an identity it holds no key for: it is a roster member
// in everyone's eyes, proves with the wrong private key, and verifies
// honestly (so the mutual handshake reaches the point where ITS proof is
// what fails).
type evilAuth struct {
	self   types.ServerID
	signer *crypto.Signer
	roster *crypto.Roster
}

func newEvilAuth(t *testing.T, fx *roster.Fixture, claim types.ServerID) *evilAuth {
	t.Helper()
	r, err := fx.File.Roster()
	if err != nil {
		t.Fatal(err)
	}
	pair, err := crypto.GenerateKeyPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	// A detached signer (nil roster) skips the defensive key check —
	// exactly what an attacker without the real key would run.
	signer, err := crypto.NewSigner(claim, pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &evilAuth{self: claim, signer: signer, roster: r}
}

func (a *evilAuth) Self() types.ServerID          { return a.self }
func (a *evilAuth) Prove(context []byte) []byte   { return a.signer.Sign(context) }
func (a *evilAuth) Member(id types.ServerID) bool { return a.roster.Contains(id) }
func (a *evilAuth) Verify(id types.ServerID, context, sig []byte) bool {
	return a.roster.Verify(id, context, sig)
}

// listenAuthed builds a listener for fixture identity i with an echo
// handler on the sync channel.
func listenAuthed(t *testing.T, fx *roster.Fixture, i int, s *sink) *Transport {
	t.Helper()
	tr, err := Listen(Config{
		Self:       types.ServerID(i),
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(s),
		Handlers:   map[transport.Channel]transport.Handler{transport.ChanSync: echoHandler{}},
		Auth:       fixtureAuth(t, fx, i),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// TestAuthHandshakeAccepts: with authentication on both sides, streams
// and calls work exactly as before, and nothing is rejected.
func TestAuthHandshakeAccepts(t *testing.T) {
	fx := authFixture(t, 2)
	sb := &sink{}
	tb := listenAuthed(t, fx, 1, sb)
	ta := listenAuthed(t, fx, 0, &sink{})
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	ta.Send(1, transport.ChanGossip, []byte("proven"))
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if from, payload := sb.first(); from != 0 || payload != "proven" {
		t.Fatalf("got (%v, %q)", from, payload)
	}

	cs := newCallSink()
	ta.Call(1, transport.ChanSync, []byte("ping"), cs)
	res := cs.wait(t, 5*time.Second)
	if res.err != nil || len(res.frames) != 3 {
		t.Fatalf("call: err=%v frames=%q", res.err, res.frames)
	}
	if tb.Counts().Get(Rejections) != 0 || tb.Counts().Get(AuthRejections) != 0 || ta.Counts().Get(AuthFailures) != 0 {
		t.Fatalf("healthy handshakes counted: rej=%d auth=%d fail=%d",
			tb.Counts().Get(Rejections), tb.Counts().Get(AuthRejections), ta.Counts().Get(AuthFailures))
	}
}

// TestAuthWrongKeyRejected: a dialer claiming roster identity 0 without
// the matching private key is refused — its payloads never reach an
// endpoint, its calls observe ErrAuthFailed, and the listener counts the
// rejection alongside Rejections().
func TestAuthWrongKeyRejected(t *testing.T) {
	fx := authFixture(t, 2)
	sb := &sink{}
	tb := listenAuthed(t, fx, 1, sb)

	evil, err := Listen(Config{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Auth:       newEvilAuth(t, fx, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = evil.Close() }()
	if err := evil.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	evil.Send(1, transport.ChanGossip, []byte("forged"))
	waitFor(t, 5*time.Second, func() bool { return tb.Counts().Get(AuthRejections) >= 1 })
	if sb.count() != 0 {
		t.Fatalf("forged payload delivered: %d", sb.count())
	}
	if tb.Counts().Get(Rejections) < tb.Counts().Get(AuthRejections) {
		t.Fatal("auth rejections not counted alongside Rejections")
	}

	cs := newCallSink()
	evil.Call(1, transport.ChanSync, []byte("req"), cs)
	if res := cs.wait(t, 5*time.Second); !errors.Is(res.err, transport.ErrAuthFailed) {
		t.Fatalf("call error = %v, want ErrAuthFailed", res.err)
	}
}

// TestAuthNonRosterRejected: a peer whose claimed ServerID is outside the
// roster is refused before any challenge is even issued.
func TestAuthNonRosterRejected(t *testing.T) {
	fx := authFixture(t, 2)
	sb := &sink{}
	tb := listenAuthed(t, fx, 1, sb)

	outside, err := Listen(Config{
		Self:       7, // not in the 2-member roster
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Auth:       newEvilAuth(t, fx, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = outside.Close() }()
	if err := outside.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}
	outside.Send(1, transport.ChanGossip, []byte("outsider"))
	waitFor(t, 5*time.Second, func() bool { return tb.Counts().Get(AuthRejections) >= 1 })
	if sb.count() != 0 {
		t.Fatalf("non-roster payload delivered: %d", sb.count())
	}
}

// TestAuthUnauthenticatedPeerRejected: a peer that does not authenticate
// cannot talk to a listener — whether its hello carries no nonce to
// challenge (what a transport without Auth sent before version 4) or it
// answers the challenge with a payload instead of a proof. Nothing it
// sends reaches an endpoint, and a call is told ErrAuthFailed.
func TestAuthUnauthenticatedPeerRejected(t *testing.T) {
	fx := authFixture(t, 2)
	sb := &sink{}
	tb := listenAuthed(t, fx, 1, sb)
	// dial writes a hello claiming server 0 — with a nonce, or without —
	// and, if the listener challenges, a gossip payload where the proof
	// belongs. It returns the listener's last frame: nil once it hung up.
	dial := func(kind byte, nonce []byte) []byte {
		conn, err := net.Dial("tcp", tb.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		hello := wire.NewWriter(16 + transport.NonceSize)
		hello.Uint16(transport.Version)
		hello.Uint16(0)
		hello.Byte(kind)
		if kind == kindCall {
			hello.Byte(byte(transport.ChanSync))
		}
		if nonce != nil {
			hello.VarBytes(nonce)
		}
		if err := wire.WriteFrame(conn, hello.Bytes()); err != nil {
			t.Fatal(err)
		}
		var last []byte
		for {
			frame, err := wire.ReadFrame(conn)
			if err != nil {
				return last
			}
			last = frame
			if frame[0] == tagAuthChallenge {
				_ = wire.WriteFrame(conn, append([]byte{byte(transport.ChanGossip)}, "unproven"...))
			}
		}
	}

	if last := dial(kindStream, nil); last != nil {
		t.Fatalf("a hello without a nonce was answered %q", last)
	}
	waitFor(t, 5*time.Second, func() bool { return tb.Counts().Get(Rejections) == 1 })
	if last := dial(kindStream, make([]byte, transport.NonceSize)); last == nil || last[0] != tagAuthChallenge {
		t.Fatalf("a stream hello was answered %q, want the challenge and a hang-up", last)
	}
	waitFor(t, 5*time.Second, func() bool { return tb.Counts().Get(AuthRejections) == 1 })
	last := dial(kindCall, make([]byte, transport.NonceSize))
	if len(last) == 0 || last[0] != tagError || !errors.Is(decodeCallError(last[1:]), transport.ErrAuthFailed) {
		t.Fatalf("an unproven call's last frame = %q, want ErrAuthFailed", last)
	}
	if sb.count() != 0 {
		t.Fatalf("unauthenticated payload delivered: %d", sb.count())
	}
}

// TestAuthImpostorListenerRejected: the handshake is mutual — a dialer
// refuses a listener that cannot prove the identity it was dialed as,
// and counts the failure. Calls surface ErrAuthFailed explicitly.
func TestAuthImpostorListenerRejected(t *testing.T) {
	fx := authFixture(t, 2)
	// The impostor squats on an address and claims to be server 1
	// without the key.
	imposter, err := Listen(Config{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Handlers:   map[transport.Channel]transport.Handler{transport.ChanSync: echoHandler{}},
		Auth:       newEvilAuth(t, fx, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = imposter.Close() }()

	honest, err := Listen(Config{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Auth:       fixtureAuth(t, fx, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = honest.Close() }()
	if err := honest.Connect(1, imposter.Addr()); err != nil {
		t.Fatal(err)
	}

	honest.Send(1, transport.ChanGossip, []byte("secret"))
	waitFor(t, 5*time.Second, func() bool { return honest.Counts().Get(AuthFailures) >= 1 })

	cs := newCallSink()
	honest.Call(1, transport.ChanSync, []byte("req"), cs)
	if res := cs.wait(t, 5*time.Second); !errors.Is(res.err, transport.ErrAuthFailed) {
		t.Fatalf("call error = %v, want ErrAuthFailed", res.err)
	}
}

// TestAuthStaleNonceRejected: a proof computed over anything but the
// listener's fresh nonce — a stale nonce from an earlier connection, or
// a verbatim replay of a previously valid proof — does not verify. The
// nonce is what makes each handshake single-use.
func TestAuthStaleNonceRejected(t *testing.T) {
	fx := authFixture(t, 2)
	sb := &sink{}
	tb := listenAuthed(t, fx, 1, sb)
	id0, err := fx.Identity(0)
	if err != nil {
		t.Fatal(err)
	}

	// handshake dials tb, identifies as server 0, and answers the
	// challenge with a proof over proveNonce instead of the nonce the
	// listener just issued. It returns the listener's actual nonce, so a
	// first call can harvest a genuine stale value for the second.
	handshake := func(proveNonce []byte) (listenerNonce []byte, accepted bool) {
		conn, err := net.Dial("tcp", tb.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))

		myNonce := make([]byte, transport.NonceSize)
		hello := wire.NewWriter(16 + transport.NonceSize)
		hello.Uint16(transport.Version)
		hello.Uint16(0)
		hello.Byte(kindStream)
		hello.VarBytes(myNonce)
		if err := wire.WriteFrame(conn, hello.Bytes()); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(frame)
		if r.Byte() != tagAuthChallenge {
			t.Fatal("expected challenge frame")
		}
		_ = r.Uint16() // listener id
		listenerNonce = r.VarBytes()
		_ = r.VarBytes() // listener proof (not under test here)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		if proveNonce == nil {
			proveNonce = listenerNonce
		}
		sig := id0.Auth().Prove(transport.AuthContext(transport.Version, kindStream, 0, proveNonce, 0, 1))
		w := wire.NewWriter(80)
		w.Byte(tagAuthProof)
		w.VarBytes(sig)
		if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
			t.Fatal(err)
		}
		// An accepted stream stays open (the next read blocks until our
		// payload); a rejected one is closed by the listener.
		payload := wire.NewWriter(8)
		payload.Byte(byte(transport.ChanGossip))
		_ = wire.WriteFrame(conn, payload.Bytes())
		one := make([]byte, 1)
		_ = conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		_, rerr := conn.Read(one)
		if rerr == nil {
			t.Fatal("listener wrote unexpected bytes on a stream connection")
		}
		var nerr net.Error
		timedOut := errors.As(rerr, &nerr) && nerr.Timeout()
		return listenerNonce, timedOut // EOF/reset = rejected, timeout = still open
	}

	// A correct proof over the fresh nonce is accepted; harvest the
	// nonce for the replay.
	staleNonce, ok := handshake(nil)
	if !ok {
		t.Fatal("genuine handshake rejected")
	}
	before := tb.Counts().Get(AuthRejections)
	// The same identity re-proving over the PREVIOUS connection's nonce
	// — a recorded handshake replayed verbatim — must be refused: the
	// listener issued a fresh nonce this time.
	if _, ok := handshake(staleNonce); ok {
		t.Fatal("stale-nonce proof accepted — handshake is replayable")
	}
	if tb.Counts().Get(AuthRejections) <= before {
		t.Fatal("stale-nonce rejection not counted")
	}
}

// TestAuthVersionMismatchBeforeAuth: version negotiation runs before
// authentication — an incompatible peer is told "wrong version", not
// "auth failed", and no challenge is ever issued for it.
func TestAuthVersionMismatchBeforeAuth(t *testing.T) {
	fx := authFixture(t, 2)
	tb := listenAuthed(t, fx, 1, &sink{})

	future, err := Listen(Config{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Auth:       fixtureAuth(t, fx, 0),
		version:    transport.Version + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = future.Close() }()
	if err := future.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	cs := newCallSink()
	future.Call(1, transport.ChanSync, []byte("req"), cs)
	res := cs.wait(t, 5*time.Second)
	if !errors.Is(res.err, transport.ErrVersionMismatch) {
		t.Fatalf("call error = %v, want ErrVersionMismatch (before auth)", res.err)
	}
	if tb.Counts().Get(Rejections) < 1 {
		t.Fatal("version mismatch not counted")
	}
	if tb.Counts().Get(AuthRejections) != 0 {
		t.Fatal("version mismatch reached the authentication stage")
	}
}

// TestAuthSelfMismatchRefused: config validation — an authenticator
// proving a different identity than Config.Self is a wiring bug caught
// at Listen.
func TestAuthSelfMismatchRefused(t *testing.T) {
	fx := authFixture(t, 2)
	_, err := Listen(Config{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Auth:       fixtureAuth(t, fx, 1),
	})
	if err == nil {
		t.Fatal("Listen accepted an authenticator for the wrong identity")
	}
}

// TestAuthOversizedHelloRefusedOnHeader: before a connection has proven
// anything, four bytes must not buy wire.MaxFrame of this process's
// memory for the handshake timeout. A raw connection that sends only a frame
// header announcing MaxFrame is refused on that header — no payload
// awaited, no deadline needed (the listener's is far away) — counted, and
// closed.
func TestAuthOversizedHelloRefusedOnHeader(t *testing.T) {
	fx := authFixture(t, 2)
	tb, err := Listen(Config{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(&sink{}),
		Auth:      fixtureAuth(t, fx, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()

	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte{0x01, 0x00, 0x00, 0x00}); err != nil { // 16 MiB = wire.MaxFrame
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return tb.Counts().Get(Rejections) == 1 })
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("listener kept the connection open waiting for the payload (read err %v)", err)
	}

	// The dialer's side of the same hole: a listener answering the hello
	// with an oversized header fails the handshake at once.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = c.Close() }()
		if _, err := wire.ReadFrame(c); err != nil {
			return
		}
		_, _ = c.Write([]byte{0x01, 0x00, 0x00, 0x00})
		_, _ = c.Read(make([]byte, 1)) // hold the connection until the dialer gives up
	}()
	ta, err := Listen(Config{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(&sink{}),
		Auth:      fixtureAuth(t, fx, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	if err := ta.Connect(1, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	cs := newCallSink()
	ta.Call(1, transport.ChanSync, []byte("req"), cs)
	if res := cs.wait(t, 2*time.Second); !errors.Is(res.err, transport.ErrAuthFailed) {
		t.Fatalf("call against an oversized challenge: %v, want ErrAuthFailed at once", res.err)
	}
}

// TestAuthForgedHelloChargesNobody: the identity in an inbound hello is a claim
// until the proof verifies, so a handshake that fails charges nobody — or
// anyone who can reach the port could push an honest member into quarantine
// and steer every follower's poll rotation (peerscore.Pick) away from it.
// The rejection is still counted. Outbound is different: a listener at the
// roster address we dialled that cannot prove itself is charged.
func TestAuthForgedHelloChargesNobody(t *testing.T) {
	fx := authFixture(t, 4)
	const framed = 2
	scores := peerscore.New(peerscore.Options{})
	victim, err := Listen(Config{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Auth:       fixtureAuth(t, fx, 0),
		Scores:     scores,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = victim.Close() }()
	rotation := func() (picks []types.ServerID) {
		for cursor := 0; cursor < 6; cursor++ {
			p, _ := scores.Pick([]types.ServerID{1, 2, 3}, cursor)
			picks = append(picks, p)
		}
		return picks
	}
	clean := rotation()

	// forge claims to be the framed member and answers the challenge with a
	// signature it cannot have.
	forge := func() {
		conn, err := net.Dial("tcp", victim.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		hello := wire.NewWriter(16 + transport.NonceSize)
		hello.Uint16(transport.Version)
		hello.Uint16(framed)
		hello.Byte(kindStream)
		hello.VarBytes(make([]byte, transport.NonceSize))
		if err := wire.WriteFrame(conn, hello.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
		proof := wire.NewWriter(80)
		proof.Byte(tagAuthProof)
		proof.VarBytes(make([]byte, 64))
		if err := wire.WriteFrame(conn, proof.Bytes()); err != nil {
			t.Fatal(err)
		}
		_, _ = conn.Read(make([]byte, 1)) // the listener hangs up
	}
	for i := 0; i < 100; i++ {
		forge()
	}
	waitFor(t, 5*time.Second, func() bool { return victim.Counts().Get(AuthRejections) == 100 })
	if got := dagtest.Score(scores, framed); got != 0 {
		t.Fatalf("100 forged hellos claiming s%d raised its score to %v", framed, got)
	}
	if got := rotation(); !slices.Equal(got, clean) {
		t.Fatalf("poll rotation after the forgeries = %v, want %v", got, clean)
	}

	// An impostor squatting on the framed member's address: this time we
	// chose whom to talk to, and it could not prove it.
	imposter, err := Listen(Config{
		Self:       framed,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(&sink{}),
		Auth:       newEvilAuth(t, fx, framed),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = imposter.Close() }()
	if err := victim.Connect(framed, imposter.Addr()); err != nil {
		t.Fatal(err)
	}
	victim.Send(framed, transport.ChanGossip, []byte("secret"))
	waitFor(t, 5*time.Second, func() bool { return victim.Counts().Get(AuthFailures) >= 1 && dagtest.Score(scores, framed) > 0 })
}

// TestAuthUnansweredHandshakeChargesNobody: an outbound handshake fails as
// an authentication failure in two ways that accuse nobody: the listener
// closes after the hello (it restarted, or died), or it refuses us with an explicit error frame (it has not learned a rotated roster
// yet). Both are counted; neither is charged to the roster member whose
// address we dialled. Only a listener that answers and cannot prove itself
// is (TestAuthForgedHelloChargesNobody's last step).
func TestAuthUnansweredHandshakeChargesNobody(t *testing.T) {
	fx := authFixture(t, 2)
	for name, answer := range map[string][]byte{
		"closes":  nil,
		"refuses": append([]byte{tagError}, transport.ErrAuthFailed.Error()...),
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ln.Close() }()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					if _, err := wire.ReadFrame(conn); err == nil && answer != nil {
						_ = wire.WriteFrame(conn, answer)
					}
					_ = conn.Close()
				}
			}()
			scores := peerscore.New(peerscore.Options{})
			dialer, err := Listen(Config{
				Self:       0,
				ListenAddr: "127.0.0.1:0",
				Endpoints:  gossipEndpoints(&sink{}),
				Auth:       fixtureAuth(t, fx, 0),
				Scores:     scores,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = dialer.Close() }()
			if err := dialer.Connect(1, ln.Addr().String()); err != nil {
				t.Fatal(err)
			}
			cs := newCallSink()
			dialer.Call(1, transport.ChanSync, []byte("req"), cs)
			if res := cs.wait(t, 5*time.Second); !errors.Is(res.err, transport.ErrAuthFailed) {
				t.Fatalf("call error = %v, want ErrAuthFailed", res.err)
			}
			dialer.Send(1, transport.ChanGossip, []byte("hello"))
			waitFor(t, 5*time.Second, func() bool { return dialer.Counts().Get(AuthFailures) >= 3 })
			if got := dagtest.Score(scores, 1); got != 0 {
				t.Fatalf("a listener that %s raised s1's score to %v", name, got)
			}
		})
	}
}
