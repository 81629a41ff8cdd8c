package syncsvc_test

import (
	"errors"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/simnet"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// TestWatermarkFrameRoundTrip: the watermark-exchange frame codec
// inverts cleanly, including the empty vector.
func TestWatermarkFrameRoundTrip(t *testing.T) {
	for _, wms := range [][]syncsvc.Watermark{
		{},
		{{Builder: 0, NextSeq: 7}},
		{{Builder: 1, NextSeq: 3}, {Builder: 2, NextSeq: 0}, {Builder: 9, NextSeq: 1 << 40}},
	} {
		got, err := syncsvc.DecodeWatermarkFrame(syncsvc.EncodeWatermarkFrame(wms))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(wms) {
			t.Fatalf("round trip %v -> %v", wms, got)
		}
		for i := range wms {
			if got[i] != wms[i] {
				t.Fatalf("round trip %v -> %v", wms, got)
			}
		}
	}
	if _, err := syncsvc.DecodeWatermarkFrame([]byte{0xEE, 0}); err == nil {
		t.Fatal("decoded a frame of the wrong kind")
	}
}

// TestWatermarkQueryOverSimnet: a watermark-exchange call against a
// store-backed server returns the vector describing the store, both via
// the scan fallback and via a configured live source.
func TestWatermarkQueryOverSimnet(t *testing.T) {
	roster, blocks := buildChain(t, 25)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()

	run := func(srv *syncsvc.Server) []syncsvc.Watermark {
		net := simnet.New(simnet.WithSeed(9))
		net.RegisterHandler(0, transport.ChanSync, srv)
		q := syncsvc.NewWatermarkQuery(nil)
		net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), q)
		if !net.RunUntil(q.Done) {
			t.Fatal("query never finished")
		}
		wms, err := q.Result()
		if err != nil {
			t.Fatal(err)
		}
		return wms
	}

	want := syncsvc.Watermarks(blocks)
	for name, srv := range map[string]*syncsvc.Server{
		"scan-fallback": {Store: st},
		"live-source":   {Store: st, Watermarks: func() []syncsvc.Watermark { return want }},
		// A live source that is not bound yet answers nil, which must
		// fall back to the scan — not read as "holds nothing".
		"nil-live-source": {Store: st, Watermarks: func() []syncsvc.Watermark { return nil }},
	} {
		got := run(srv)
		if len(got) != 1 || got[0] != want[0] {
			t.Fatalf("%s: watermarks = %v, want %v", name, got, want)
		}
	}
}

// TestWatermarkQueryThrottled: watermark queries pass the same admission
// policy as delta streams, and the throttle sentinel survives to the
// client.
func TestWatermarkQueryThrottled(t *testing.T) {
	roster, blocks := buildChain(t, 5)
	st := storeWith(t, t.TempDir(), roster, blocks)
	defer func() { _ = st.Close() }()

	net := simnet.New(simnet.WithSeed(2))
	clock := net.Now
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{
		Store: st,
		Every: time.Hour, // one token replenished per hour...
		Burst: 1,         // ...and the bucket holds just one
		Clock: clock,
	})

	issue := func() error {
		q := syncsvc.NewWatermarkQuery(nil)
		net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), q)
		if !net.RunUntil(q.Done) {
			t.Fatal("query never finished")
		}
		_, err := q.Result()
		return err
	}
	if err := issue(); err != nil {
		t.Fatalf("first query: %v", err)
	}
	err := issue()
	if !errors.Is(err, syncsvc.ErrThrottled) {
		t.Fatalf("second query err = %v, want ErrThrottled", err)
	}
}

// TestWatermarkQueryTruncated: a transport-clean close without the
// vector frame is an explicit error, not an empty answer.
func TestWatermarkQueryTruncated(t *testing.T) {
	net := simnet.New()
	net.RegisterHandler(0, transport.ChanSync, handlerFunc(func(from types.ServerID, req []byte, st transport.ServerStream) {
		st.Close(nil) // "done", but never answered
	}))
	q := syncsvc.NewWatermarkQuery(nil)
	net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), q)
	if !net.RunUntil(q.Done) {
		t.Fatal("query never finished")
	}
	if _, err := q.Result(); err == nil {
		t.Fatal("truncated watermark answer accepted")
	}
}

// handlerFunc adapts a function to transport.Handler.
type handlerFunc func(types.ServerID, []byte, transport.ServerStream)

func (f handlerFunc) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	f(from, req, st)
}

// TestHorizonAndBehind: the pull trigger fires exactly when a peer
// advertises blocks outside the local horizon, and Lag says by how many.
func TestHorizonAndBehind(t *testing.T) {
	_, blocks := buildChain(t, 4) // builder 0, seqs 0..3
	tr := syncsvc.NewWatermarkTracker()
	for _, b := range blocks {
		tr.Observe(b)
	}
	local := tr.Horizon()
	if local[0] != 4 {
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

// TestWatermarkTracker: incremental observation matches the batch
// computation, and an equivocating builder drops out of the vector.
func TestWatermarkTracker(t *testing.T) {
	_, blocks := buildChain(t, 10)
	tr := syncsvc.NewWatermarkTracker()
	for _, b := range blocks {
		tr.Observe(b)
	}
	want := syncsvc.Watermarks(blocks)
	got := tr.Snapshot()
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("tracker = %v, batch = %v", got, want)
	}

	// An equivocation variant revisits a sequence slot: the builder must
	// leave the vector (only an exact chain prefix is skippable).
	variant := block.New(0, 4, []block.Ref{blocks[3].Ref()}, nil)
	tr.Observe(variant)
	if wms := tr.Snapshot(); len(wms) != 0 {
		t.Fatalf("forked builder still advertised: %v", wms)
	}
}
