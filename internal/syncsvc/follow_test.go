package syncsvc_test

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/roster"
	"blockdag/internal/simnet"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// tcpAuth is server self's authenticator over the dev keys, which every
// crypto.LocalRoster of these tests holds a prefix of.
func tcpAuth(t testing.TB, self types.ServerID) transport.Authenticator {
	t.Helper()
	fx, err := roster.Dev(4)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fx.Identity(int(self))
	if err != nil {
		t.Fatal(err)
	}
	return id.Auth()
}

// holding inserts blocks into a fresh DAG over roster: a node holding them.
func holding(t testing.TB, roster *crypto.Roster, blocks []*block.Block) *dag.DAG {
	t.Helper()
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// held is the horizon of a node holding blocks.
func held(t testing.TB, roster *crypto.Roster, blocks []*block.Block) []syncsvc.Watermark {
	return syncsvc.Held(holding(t, roster, blocks))
}

// counted is a fixed block list as a block source that counts the streams
// it is asked for: a node's serve turns, one or more a stream.
type counted struct {
	fixed
	streams atomic.Int32
}

func (c *counted) Stream(next map[types.ServerID]uint64, chunk int, send func([]*block.Block) error) error {
	c.streams.Add(1)
	return c.fixed.Stream(next, chunk, send)
}

// frameCounter is a pull that counts the frames the transport hands it.
type frameCounter struct {
	*syncsvc.Pull
	frames atomic.Int32
}

func (c *frameCounter) OnFrame(frame []byte) {
	c.frames.Add(1)
	c.Pull.OnFrame(frame)
}

// TestDeltaEarlyAnswer: a request whose horizon covers the server's live
// vector is answered by exactly one frame, done(0), and the node is never
// asked for a turn — over simnet and over real sockets. Without a live
// vector (none wired, or a runtime not up yet) the same request goes to the
// block source and still streams nothing.
func TestDeltaEarlyAnswer(t *testing.T) {
	roster, blocks := buildChain(t, 25)
	live := held(t, roster, blocks)
	for name, tc := range map[string]struct {
		watermarks func() []syncsvc.Watermark
		turns      int32
	}{
		"live":     {func() []syncsvc.Watermark { return live }, 0},
		"unwired":  {nil, 1},
		"not-up":   {func() []syncsvc.Watermark { return nil }, 1},
		"holds-no": {func() []syncsvc.Watermark { return []syncsvc.Watermark{} }, 0},
	} {
		src := &counted{fixed: blocks}
		srv := func() *syncsvc.Server {
			return &syncsvc.Server{Store: onStore(t, src), Watermarks: tc.watermarks}
		}
		check := func(via string, pull *frameCounter) {
			t.Helper()
			got, err := pull.Result()
			if err != nil || len(got) != 0 || pull.Streamed() != 0 {
				t.Fatalf("%s over %s: %d blocks (%d streamed), err %v", name, via, len(got), pull.Streamed(), err)
			}
			if f := pull.frames.Load(); f != 1 {
				t.Fatalf("%s over %s: answered in %d frames, want the one done frame", name, via, f)
			}
			if n := src.streams.Swap(0); n != tc.turns {
				t.Fatalf("%s over %s: block source asked %d times, want %d", name, via, n, tc.turns)
			}
		}

		net := simnet.New(simnet.WithSeed(9))
		net.RegisterHandler(0, transport.ChanSync, srv())
		pull := &frameCounter{Pull: syncsvc.NewPull(roster, live, 0, nil)}
		net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
		if !runUntil(net, pull.Done) {
			t.Fatal("stream did not finish")
		}
		check("simnet", pull)

		ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
		server, err := tcpnet.Listen(tcpnet.Config{
			Self: 0, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 0), Endpoints: ep,
			Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: srv()},
		})
		if err != nil {
			t.Fatal(err)
		}
		client, err := tcpnet.Listen(tcpnet.Config{Self: 1, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 1), Endpoints: ep})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Connect(0, server.Addr()); err != nil {
			t.Fatal(err)
		}
		pull = &frameCounter{Pull: syncsvc.NewPull(roster, live, 0, nil)}
		client.Call(0, transport.ChanSync, pull.Request(), pull)
		if !pull.Wait(5 * time.Second) {
			t.Fatal("stream did not finish over tcpnet")
		}
		check("tcpnet", pull)
		_ = client.Close()
		_ = server.Close()
	}
}

// TestDeltaForkedBuilder: a builder the requester marks Forked is compared
// — a server that is not ahead of the requester's horizon streams nothing
// of it — but never skipped: once anything makes the server stream, that
// builder's chain goes whole.
func TestDeltaForkedBuilder(t *testing.T) {
	roster, blocks := buildChain(t, 10)
	ask := func(live []syncsvc.Watermark, have ...syncsvc.Watermark) int {
		net := simnet.New()
		net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{
			Store:      onStore(t, fixed(blocks)),
			Watermarks: func() []syncsvc.Watermark { return live },
		})
		got, err := runPull(t, net, syncsvc.NewPull(roster, have, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	forked := syncsvc.Watermark{Builder: 0, NextSeq: 10, Forked: true}
	// The server never saw the fork and advertises the chain: nothing new.
	if n := ask(held(t, roster, blocks), forked); n != 0 {
		t.Fatalf("forked builder at the server's horizon re-streamed: %d blocks", n)
	}
	// The server is ahead on another builder: the forked chain is not
	// skipped, the plain one is.
	ahead := append(held(t, roster, blocks), syncsvc.Watermark{Builder: 1, NextSeq: 3})
	if n := ask(ahead, forked); n != 10 {
		t.Fatalf("forked builder's chain skipped: %d blocks streamed, want 10", n)
	}
	if n := ask(ahead, syncsvc.Watermark{Builder: 0, NextSeq: 10}); n != 0 {
		t.Fatalf("held prefix streamed: %d blocks", n)
	}
}

// TestRequestCodec: the request encoding inverts, marks included, and is
// canonical — one request, one encoding.
func TestRequestCodec(t *testing.T) {
	have := []syncsvc.Watermark{{Builder: 0, NextSeq: 7}, {Builder: 2, NextSeq: 1 << 40, Forked: true}, {Builder: 9}}
	got, err := syncsvc.DecodeRequest(syncsvc.EncodeRequest(have))
	if err != nil || !slices.Equal(got, have) {
		t.Fatalf("round trip %v -> %v (err %v)", have, got, err)
	}
	if got, err := syncsvc.DecodeRequest(syncsvc.EncodeRequest(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty request -> %v (err %v)", got, err)
	}
	for name, req := range refusedRequests() {
		if got, err := syncsvc.DecodeRequest(req); err == nil {
			t.Fatalf("%s decoded as %v", name, got)
		}
	}
}

// refusedRequests are encodings DecodeRequest must refuse.
func refusedRequests() map[string][]byte {
	two := syncsvc.EncodeRequest([]syncsvc.Watermark{{Builder: 1, NextSeq: 4}, {Builder: 3, NextSeq: 2, Forked: true}})
	entry := (len(two) - 2) / 2
	a, b := two[2:2+entry], two[2+entry:]
	join := func(parts ...[]byte) []byte { return append([]byte{two[0], two[1]}, slices.Concat(parts...)...) }
	marked := slices.Clone(two)
	marked[len(marked)-1] = 2
	return map[string][]byte{
		"the v1 request":         {1, 1, 0, 0, 7},
		"the PR 5 probe":         {2},
		"truncated":              two[:len(two)-1],
		"trailing byte":          append(slices.Clone(two), 0),
		"a builder listed twice": join(a, a),
		"builders out of order":  join(b, a),
		"a mark that is no bool": marked,
	}
}

// TestHorizonAndBehind: a vector is ahead exactly when it names blocks
// outside the local horizon, and Lag says by how many.
func TestHorizonAndBehind(t *testing.T) {
	roster, blocks := buildChain(t, 4) // builder 0, seqs 0..3
	local := map[types.ServerID]uint64{}
	for _, wm := range held(t, roster, blocks) {
		local[wm.Builder] = wm.NextSeq
	}
	if len(local) != 1 || local[0] != 4 {
		t.Fatalf("horizon = %v, want builder 0 at 4", local)
	}
	cases := []struct {
		peer []syncsvc.Watermark
		want uint64
	}{
		{nil, 0},
		{[]syncsvc.Watermark{{Builder: 0, NextSeq: 4}}, 0},                           // equal
		{[]syncsvc.Watermark{{Builder: 0, NextSeq: 2}}, 0},                           // peer behind
		{[]syncsvc.Watermark{{Builder: 0, NextSeq: 5}}, 1},                           // peer ahead
		{[]syncsvc.Watermark{{Builder: 0, NextSeq: 6}, {Builder: 1, NextSeq: 3}}, 5}, // and an unknown builder
	}
	for i, tc := range cases {
		if got := syncsvc.Lag(local, tc.peer); got != tc.want || syncsvc.Behind(local, tc.peer) != (tc.want > 0) {
			t.Fatalf("case %d: Lag = %d (Behind %v), want %d", i, got, syncsvc.Behind(local, tc.peer), tc.want)
		}
	}
}

// TestHeldIsTheDAGs: the horizon and the vector are the DAG's chain heads
// — a fold over what it holds — and an equivocating builder drops out of
// the vector but not out of the horizon.
func TestHeldIsTheDAGs(t *testing.T) {
	roster, blocks := buildChain(t, 10)
	d := holding(t, roster, blocks)
	next := map[types.ServerID]uint64{}
	for _, b := range blocks {
		next[b.Builder] = max(next[b.Builder], b.Seq+1)
	}
	want := syncsvc.Watermark{Builder: 0, NextSeq: next[0]}
	if got := syncsvc.Vector(d); len(got) != 1 || got[0] != want {
		t.Fatalf("vector = %v, fold = %v", got, want)
	}
	if got := syncsvc.Held(d); len(got) != 1 || got[0] != want {
		t.Fatalf("horizon = %v, fold = %v", got, want)
	}

	// An equivocation variant revisits a sequence slot: the builder must
	// leave the vector (only an exact chain prefix is skippable) and stay,
	// marked, in the horizon (what the node holds is still comparable).
	variant := block.New(0, 4, []block.Ref{blocks[3].Ref()}, nil)
	if err := d.InsertVerified(variant); err != nil {
		t.Fatal(err)
	}
	if wms := syncsvc.Vector(d); wms == nil || len(wms) != 0 {
		t.Fatalf("forked builder still advertised (or a nil vector): %v", wms)
	}
	want.Forked = true
	if got := syncsvc.Held(d); len(got) != 1 || got[0] != want {
		t.Fatalf("horizon after the fork = %v, want %v", got, want)
	}
}
