package syncsvc_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/peerscore"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// recStream is a transport.ServerStream fake recording the terminal
// close, for driving Server.ServeCall directly.
type recStream struct {
	mu     sync.Mutex
	frames int
	err    error
	closed bool
	done   chan struct{}
}

func newRecStream() *recStream { return &recStream{done: make(chan struct{})} }

func (s *recStream) Send(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames++
	return nil
}

func (s *recStream) Close(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	close(s.done)
}

func (s *recStream) closeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// gate is a block source that, asked for a stream, says so on entered and
// serves nothing once release closes: a node busy reading.
type gate struct{ entered, release chan struct{} }

func (g gate) Stream(map[types.ServerID]uint64, int, func([]*block.Block) error) error {
	g.entered <- struct{}{}
	<-g.release
	return nil
}

// TestServerInFlightCap: a peer holding two streams open (the cap)
// has further requests refused with ErrThrottled — before any row is
// read — while another peer is admitted; the refusal is counted.
func TestServerInFlightCap(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	var scans sync.WaitGroup
	srv := &syncsvc.Server{Store: onStore(t, gate{entered, release})}
	req := syncsvc.EncodeRequest(nil)

	inFlight := []*recStream{newRecStream(), newRecStream()}
	for _, st := range inFlight {
		scans.Add(1)
		go func(st *recStream) {
			defer scans.Done()
			srv.ServeCall(1, req, st)
		}(st)
	}
	// Both streams hold their slots (blocked in the source, asked strictly
	// after admission) before the overflow request arrives.
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			t.Fatal("held streams never started serving")
		}
	}
	over := newRecStream()
	srv.ServeCall(1, req, over)
	if err := over.closeErr(); !errors.Is(err, syncsvc.ErrThrottled) {
		t.Fatalf("overflow stream closed with %v, want ErrThrottled", err)
	}
	if d := srv.Counts().Get(syncsvc.DropInFlight); d != 1 {
		t.Fatalf("InFlight drops = %d, want 1", d)
	}
	// A different peer is not affected by peer 1's slots.
	other := newRecStream()
	go srv.ServeCall(2, req, other)
	// Release the held streams; everything completes cleanly.
	close(release)
	scans.Wait()
	<-other.done
	if err := other.closeErr(); err != nil {
		t.Fatalf("other peer throttled: %v", err)
	}
	for _, st := range inFlight {
		if err := st.closeErr(); err != nil {
			t.Fatalf("admitted stream closed with %v", err)
		}
	}
}

// TestServerTokenBucket: a peer hammering ChanSync is refused once its
// bucket drains and earns requests back as time passes — on the injected
// clock, so the policy is simulation-testable.
func TestServerTokenBucket(t *testing.T) {
	now := time.Duration(0)
	srv := &syncsvc.Server{
		Store: onStore(t, fixed(nil)),
		Every: time.Second,
		Burst: 2,
		Clock: func() time.Duration { return now },
	}
	req := syncsvc.EncodeRequest(nil)
	serve := func() error {
		st := newRecStream()
		srv.ServeCall(7, req, st)
		<-st.done
		return st.closeErr()
	}
	// The fresh bucket holds Burst tokens: a recovery's initial attempts
	// are never throttled.
	for i := 0; i < 2; i++ {
		if err := serve(); err != nil {
			t.Fatalf("request %d throttled: %v", i, err)
		}
	}
	if err := serve(); !errors.Is(err, syncsvc.ErrThrottled) {
		t.Fatalf("drained bucket served anyway: %v", err)
	}
	if d := srv.Counts().Get(syncsvc.DropRate); d != 1 {
		t.Fatalf("Rate drops = %d, want 1", d)
	}
	// One refill period later, exactly one more request passes.
	now += time.Second
	if err := serve(); err != nil {
		t.Fatalf("refilled bucket still throttled: %v", err)
	}
	if err := serve(); !errors.Is(err, syncsvc.ErrThrottled) {
		t.Fatalf("second request after one refill served: %v", err)
	}
	// The bucket never overfills past Burst.
	now += time.Hour
	for i := 0; i < 2; i++ {
		if err := serve(); err != nil {
			t.Fatalf("request %d after idle throttled: %v", i, err)
		}
	}
	if err := serve(); !errors.Is(err, syncsvc.ErrThrottled) {
		t.Fatalf("idle time overfilled the bucket: %v", err)
	}
	if d := srv.Counts().Get(syncsvc.DropRate); d != 3 {
		t.Fatalf("Rate drops = %d, want 3", d)
	}
}

// TestThrottledStreamKeepsClientClean: a throttled pull fails with an
// explicit error and zero blocks — the client retries elsewhere, nothing
// corrupts.
func TestThrottledStreamKeepsClientClean(t *testing.T) {
	roster, blocks := buildChain(t, 5)
	srv := &syncsvc.Server{
		Store: onStore(t, fixed(blocks)),
		Every: time.Hour,
		Burst: 1,
		Clock: func() time.Duration { return 0 },
	}
	run := func() ([]*block.Block, error) {
		pull := syncsvc.NewPull(roster, nil, 0, nil)
		st := newPullStream(pull)
		srv.ServeCall(1, pull.Request(), st)
		return pull.Result()
	}
	got, err := run()
	if err != nil || len(got) != len(blocks) {
		t.Fatalf("first pull: %d blocks, err %v", len(got), err)
	}
	got, err = run()
	if err == nil {
		t.Fatal("throttled pull reported success")
	}
	if len(got) != 0 {
		t.Fatalf("throttled pull delivered %d blocks", len(got))
	}
}

// TestThrottledSentinelSurvivesTransport: tcpnet conveys a handler's
// close error as a string frame; the client must still recognize
// throttling by sentinel, or "back off and switch peers" is
// unimplementable over the real network.
func TestThrottledSentinelSurvivesTransport(t *testing.T) {
	roster, _ := buildChain(t, 1)
	pull := syncsvc.NewPull(roster, nil, 0, nil)
	// What tcpnet's decodeCallError yields for a non-transport error.
	pull.OnDone(fmt.Errorf("transport: remote error: %v", syncsvc.ErrThrottled))
	if _, err := pull.Result(); !errors.Is(err, syncsvc.ErrThrottled) {
		t.Fatalf("throttle sentinel lost across transport: %v", err)
	}
}

// TestServerWithoutRuntimeRefuses: a server over a store no runtime is
// registered on — its node not started yet, or stopped — refuses a delta
// the early answer cannot settle with ErrNotServing: nothing read, the
// refusal counted as "starting", nobody charged, and the sentinel intact
// across real sockets, where the requester moves on to its next peer. The
// early answer still needs no runtime.
func TestServerWithoutRuntimeRefuses(t *testing.T) {
	roster, blocks := buildChain(t, 5)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()
	scores := peerscore.New(peerscore.Options{})
	var live atomic.Pointer[[]syncsvc.Watermark] // none yet: nil
	srv := &syncsvc.Server{Store: st, Scores: scores, Watermarks: func() []syncsvc.Watermark {
		if wms := live.Load(); wms != nil {
			return *wms
		}
		return nil
	}}

	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
	server, err := tcpnet.Listen(tcpnet.Config{
		Self: 0, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 0), Endpoints: ep,
		Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: srv},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	client, err := tcpnet.Listen(tcpnet.Config{Self: 1, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 1), Endpoints: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if err := client.Connect(0, server.Addr()); err != nil {
		t.Fatal(err)
	}
	pull := func(have []syncsvc.Watermark) ([]*block.Block, error) {
		p := syncsvc.NewPull(roster, have, 0, nil)
		client.Call(0, transport.ChanSync, p.Request(), p)
		if !p.Wait(5 * time.Second) {
			t.Fatal("stream did not finish over tcpnet")
		}
		return p.Result()
	}

	got, err := pull(nil)
	if !errors.Is(err, syncsvc.ErrNotServing) || len(got) != 0 {
		t.Fatalf("pull from a server with no runtime: %d blocks, err %v", len(got), err)
	}
	if d := srv.Counts().Get(syncsvc.DropStarting); d != 1 {
		t.Fatalf("starting drops = %d, want 1", d)
	}
	if s := dagtest.Score(scores, 1); s != 0 {
		t.Fatalf("a refused requester scored %.1f", s)
	}
	// A requester the live vector is not ahead of is answered all the same.
	vector := held(t, roster, blocks)
	live.Store(&vector)
	if got, err := pull(vector); err != nil || len(got) != 0 {
		t.Fatalf("early answer without a runtime: %d blocks, err %v", len(got), err)
	}
	if d := srv.Counts().Get(syncsvc.DropStarting); d != 1 {
		t.Fatalf("starting drops = %d after an early answer, want still 1", d)
	}
}

// pullStream wires a ServerStream directly to a Pull sink, no transport.
type pullStream struct {
	pull   *syncsvc.Pull
	closed bool
}

func newPullStream(p *syncsvc.Pull) *pullStream { return &pullStream{pull: p} }

func (s *pullStream) Send(frame []byte) error {
	s.pull.OnFrame(frame)
	return nil
}

func (s *pullStream) Close(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.pull.OnDone(err)
}

var _ transport.ServerStream = (*pullStream)(nil)
