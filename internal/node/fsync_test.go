package node

import (
	"runtime"
	"testing"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
)

// fsyncClock is a store clock reading *now that counts the store's fsyncs:
// store.Store.Sync reads its clock once an fsync is done, to stamp it, and
// reads it nowhere else.
type fsyncClock struct {
	now    *time.Duration
	fsyncs int
}

func (c *fsyncClock) read() time.Duration {
	pcs := make([]uintptr, 1)
	if runtime.Callers(2, pcs) == 1 {
		if f, _ := runtime.CallersFrames(pcs).Next(); f.Function == "blockdag/internal/store.(*Store).Sync" {
			c.fsyncs++
		}
	}
	return *c.now
}

// TestOneFsyncAPeriod: a durable node stepped on the period turn, Tick then
// Disseminate, every 200 ms — dense's period, and the store's interval —
// with peers' blocks arriving mid-period, fsyncs once a period and in the
// period turn: its own block forces the journal durable, and the store's
// interval sync, run after that block, finds nothing left to sync. A node
// whose guards seal nothing (it has been shown an own block it does not
// hold) still syncs the period's received blocks in that turn, by the
// interval.
func TestOneFsyncAPeriod(t *testing.T) {
	const (
		period  = 200 * time.Millisecond
		periods = 50
	)
	members, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	clock := &fsyncClock{now: &now}
	st, err := store.Open(t.TempDir(), store.Options{Roster: members, Sync: store.SyncInterval, Clock: clock.read})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	m := &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster: members, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(0), Clock: func() time.Duration { return now }, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{Server: srv, DisseminateEvery: period, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	peers := newPeerChains(t, signers)
	run := func(from, to int, why string) {
		t.Helper()
		for k := from; k < to; k++ {
			now = time.Duration(k)*period + period/2
			_, msgs := peers.burst(false, 1, 2, 3)
			before := clock.fsyncs
			nd.DeliverBurst(msgs)
			if clock.fsyncs != before {
				t.Fatalf("%s, period %d: the mid-period delivery fsynced %d times, want none", why, k, clock.fsyncs-before)
			}
			now += period / 2
			nd.Tick()
			nd.Disseminate()
			if got := clock.fsyncs - before; got != 1 {
				t.Fatalf("%s, period %d: the period turn fsynced %d times, want once", why, k, got)
			}
		}
	}
	run(0, periods, "sealing")
	if built := m.Get(metrics.BlocksBuilt); built != periods {
		t.Fatalf("built %d blocks in %d periods", built, periods)
	}
	nd.ownSeen.Store(nd.ownHeld() + 1) // an own block shown, not held: the guards hold every seal back
	run(periods, 2*periods, "sealing nothing")
	if built := m.Get(metrics.BlocksBuilt); built != periods {
		t.Fatalf("built %d blocks while shown an own block it does not hold", built-periods)
	}
}
