package node

import (
	"fmt"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/types"
)

// TestIdleNodeSealsARequestAtOnce: a stepped node that has built nothing does
// not know its own chain's tip, and its tick seals its first request. Once it
// has built, a node never busy since New is idle, and the early turn seals
// the first request it is submitted at once. Busy with that request, it
// seals the next one only at its tick; once no instance has run for
// idlePeriods periods, and not a moment before, it is idle again and seals a
// request at once. A one-member roster reads every chain itself, so its
// ticks alone run each instance out.
func TestIdleNodeSealsARequestAtOnce(t *testing.T) {
	const period = time.Hour // fullTestNodeOn's
	var now time.Duration
	nd, m, _, _ := fullTestNodeOn(t, 1, func() time.Duration { return now })
	submit := func(label types.Label) bool {
		t.Helper()
		if err := nd.Submit(label, []byte("v")); err != nil {
			t.Fatal(err)
		}
		return nd.DisseminateEarly()
	}
	if submit("first") {
		t.Fatal("a node that has built nothing sealed a request before its tick")
	}
	if nd.Disseminate(); m.Get(metrics.RequestsEmbedded) != 1 {
		t.Fatal("the tick did not seal the first request")
	}

	nd, m, _, _ = fullTestNodeOn(t, 1, func() time.Duration { return now })
	nd.Disseminate() // its first block, empty: the node knows its tip
	if !submit("a") || m.Get(metrics.BlocksSealedIdle) != 1 || m.Get(metrics.RequestsEmbedded) != 1 {
		t.Fatalf("a new node sealed %d blocks idle, embedding %d requests: want its first request sealed at once",
			m.Get(metrics.BlocksSealedIdle), m.Get(metrics.RequestsEmbedded))
	}
	if submit("b") {
		t.Fatal("a node busy with a request sealed the next one before its tick")
	}
	for ticks := 0; nd.cfg.Server.Interpreter().Running(); ticks++ {
		if ticks == 16 {
			t.Fatal("16 ticks did not run the two instances out")
		}
		now += period
		nd.Tick()
		nd.Disseminate()
	}
	if m.Get(metrics.RequestsEmbedded) != 2 || m.Get(metrics.Indications) != 2 {
		t.Fatalf("the ticks embedded %d requests and indicated %d, want both", m.Get(metrics.RequestsEmbedded), m.Get(metrics.Indications))
	}
	quiet := now // the tick that ran the last instance out found it running
	now = quiet + idlePeriods*period - 1
	if submit("c") {
		t.Fatalf("a node quiet for a moment less than %d periods sealed a request at once", idlePeriods)
	}
	now = quiet + idlePeriods*period
	if !nd.DisseminateEarly() || m.Get(metrics.BlocksSealedIdle) != 2 {
		t.Fatalf("a node quiet for %d periods did not seal the pending request", idlePeriods)
	}
}

// TestAPeersRequestWakesAnIdleNode: an idle node that a delivery makes busy
// — a peer's block carrying a request, short of full — is under load for a
// period: it answers the quorum that block begins, citing it. A period after
// the wake it answers nothing; nor does a node a pull made busy, for a pulled
// block is no delivery, nor one that has built nothing: it does not know its
// own chain's tip.
func TestAPeersRequestWakesAnIdleNode(t *testing.T) {
	const period = time.Hour
	var now time.Duration
	// known builds nd's first block, as a tick would: the node then knows its
	// tip. The check it returns is wantAnswers of the blocks after that one.
	known := func(nd *Node, m *metrics.Metrics) func(int64, string) {
		nd.Disseminate()
		return func(answers int64, why string) {
			t.Helper()
			if built, got := m.Get(metrics.BlocksBuilt)-1, m.Get(metrics.BlocksAnswered); built != answers || got != answers {
				t.Fatalf("%s: built %d blocks after the first (%d answered), want %d answers", why, built, got, answers)
			}
		}
	}
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return now })
	wantAnswers := known(nd, m)
	peers := newPeerChains(t, signers)
	woke, msgs := peers.burst(false, 1)
	nd.DeliverBurst(msgs)
	wantAnswers(0, "a peer's request alone, one builder of the quorum")
	_, msgs = peerBlock(t, signers[2], nil, nil)
	nd.DeliverBurst(msgs)
	wantAnswers(1, "a second builder's block after the request that woke the node")
	if !citesHead(nd, woke...) {
		t.Fatal("the answer does not cite the block that woke the node")
	}
	now = period
	_, msgs = peers.burst(false, 1, 3)
	nd.DeliverBurst(msgs)
	wantAnswers(1, "a quorum a period after the wake")

	nd, m, signers, net := fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	wantAnswers = known(nd, m)
	peers = newPeerChains(t, signers)
	pulled, _ := peers.next(1, false)
	pullAll(t, nd, net, pulled)
	_, msgs = peers.burst(false, 2, 3)
	nd.DeliverBurst(msgs)
	wantAnswers(0, "a quorum after a pulled request")

	nd, m, signers, _ = fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	peers = newPeerChains(t, signers)
	_, msgs = peers.burst(false, 1, 2)
	nd.DeliverBurst(msgs)
	if built := m.Get(metrics.BlocksBuilt); built != 0 {
		t.Fatalf("a node that has built nothing built %d blocks on a quorum of requests", built)
	}
}

// TestIdleSealsAndAnswersAreBounded is the Byzantine bound. Every eighth of a
// period a peer sends the node a block carrying a request — a replay of a
// label every chain has finished, which starts nothing, so the node stays
// idle. With T = idlePeriods, every 4T periods a client submits a fresh
// request, which starts an instance, and from T periods later on, for 2T
// periods, a replayed label every eighth of a period, which starts none; the
// early turn seals either at once whenever the node is idle. The peers cite
// every head, so a fresh request runs out in a few turns. Over 24T periods
// the node builds at most its ticks, those that find a reason, two answers
// at most in any window of one
// period and one idle seal at most in any window of T, however long no
// instance runs; it answers only within a period of a fresh request's seal:
// a replay never wakes it.
func TestIdleSealsAndAnswersAreBounded(t *testing.T) {
	const (
		period  = time.Hour
		turns   = 8 // a period
		cycle   = 4 * idlePeriods
		periods = 6 * cycle
		labels  = periods * turns / 2 // the replays' labels: one for each the client submits
	)
	var now time.Duration
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return now })
	last := make(map[int]*block.Block)
	// send seals peer's next block, citing its parent and every other head
	// the node holds, carrying reqs.
	send := func(peer int, reqs ...block.Request) {
		t.Helper()
		d := nd.Server().DAG()
		var preds []block.Ref
		seq := uint64(0)
		if p := last[peer]; p != nil {
			preds, seq = append(preds, p.Ref()), p.Seq+1
		}
		for id := range 4 {
			if ref, ok := d.HeadRef(types.ServerID(id)); ok && id != peer {
				preds = append(preds, ref)
			}
		}
		b := block.New(signers[peer].ID(), seq, preds, reqs)
		if err := b.Seal(signers[peer]); err != nil {
			t.Fatal(err)
		}
		last[peer] = b
		nd.DeliverBurst([]gossip.Message{{From: signers[peer].ID(), Payload: gossip.EncodeBlockMsg(b)}})
	}
	tick := func() {
		nd.Tick()
		nd.Disseminate()
	}
	replay := func(k int) block.Request {
		return block.Request{Label: types.Label(fmt.Sprintf("done/%d", k%labels)), Data: []byte("x")}
	}
	// Settle: every label a replay names runs out on every chain, and is
	// retired, before the clock starts.
	var all []block.Request
	for k := range labels {
		all = append(all, replay(k))
	}
	half := len(all) / 2 // within block.MaxRequests
	send(1, all[:half]...)
	send(2, all[half:]...)
	for k := 0; k < 16 && nd.cfg.Server.Interpreter().Running(); k++ {
		for peer := 1; peer < 4; peer++ {
			send(peer)
		}
		tick()
	}
	if nd.cfg.Server.Interpreter().Running() || m.Get(metrics.LabelsRetired) != int64(len(all)) {
		t.Fatalf("%d of %d labels retired: the replays would start instances", m.Get(metrics.LabelsRetired), len(all))
	}

	var idles, answers, fresh []time.Duration
	settled, ticks, replayed := m.Get(metrics.BlocksBuilt), 0, 0
	start := idlePeriods * period // the settling ran at 0: idle from here on
	for turn := range periods * turns {
		now = start + time.Duration(turn)*period/turns
		answered := m.Get(metrics.BlocksAnswered)
		send(1+turn%3, replay(turn))
		var label types.Label
		switch epoch := turn / turns % cycle; {
		case epoch == 0 && turn%turns == 0:
			label = types.Label(fmt.Sprintf("fresh/%d", turn))
		case epoch >= idlePeriods && epoch < 3*idlePeriods:
			label = replay(replayed).Label // a label the pool has not seen
			replayed++
		}
		if label == "" {
			// the client is silent
		} else if err := nd.Submit(label, []byte("v")); err != nil {
			t.Fatal(err)
		} else if nd.DisseminateEarly() {
			idles = append(idles, now)
			if label[0] == 'f' {
				fresh = append(fresh, now)
			}
		}
		for range m.Get(metrics.BlocksAnswered) - answered {
			answers = append(answers, now)
		}
		if turn%turns == turns-1 {
			built := m.Get(metrics.BlocksBuilt)
			tick()
			ticks += int(m.Get(metrics.BlocksBuilt) - built) // a tick with no reason seals nothing
		}
	}

	t.Logf("%d idle seals (%d of fresh requests) and %d answers over %d periods", len(idles), len(fresh), len(answers), periods)
	if len(fresh) < 4 || len(idles) == len(fresh) || len(answers) == 0 {
		t.Fatal("the run did not seal both kinds of request idle, or answered nothing")
	}
	tight := false
	for i := 1; i < len(idles); i++ {
		if idles[i]-idles[i-1] < idlePeriods*period {
			t.Fatalf("idle seals at %v and %v: two within %d periods", idles[i-1], idles[i], idlePeriods)
		}
		tight = tight || idles[i]-idles[i-1] == idlePeriods*period
	}
	if !tight {
		t.Fatalf("no two idle seals %d periods apart: the replays never pressed the bound", idlePeriods)
	}
	for i := 2; i < len(answers); i++ {
		if answers[i]-answers[i-2] < period {
			t.Fatalf("answers at %v, %v and %v: three within a period", answers[i-2], answers[i-1], answers[i])
		}
	}
	for _, at := range answers {
		woken := false
		for _, seal := range fresh {
			woken = woken || seal <= at && at < seal+period
		}
		if !woken {
			t.Fatalf("an answer at %v, not within a period of a fresh request's seal: a replay woke the node", at)
		}
	}
	if built, want := m.Get(metrics.BlocksBuilt)-settled, int64(ticks+len(idles)+len(answers)); built != want {
		t.Fatalf("built %d blocks, want %d: %d ticks, %d idle seals and %d answers", built, want, ticks, len(idles), len(answers))
	}
}

// TestADeliveredOwnBlockHoldsBuildingBack: a peer gossips the node an own
// block it published before it lost its DAG, and whose parent it lacks: the
// block waits in the pending buffer, and the node builds nothing, at its
// tick or early, until the parent arrives and both are held; then it builds
// above them.
func TestADeliveredOwnBlockHoldsBuildingBack(t *testing.T) {
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	own0, _ := peerBlock(t, signers[0], nil, nil)
	own1, _ := peerBlock(t, signers[0], own0, nil)
	from := func(b *block.Block) []gossip.Message {
		return []gossip.Message{{From: 1, Payload: gossip.EncodeBlockMsg(b)}}
	}
	nd.DeliverBurst(from(own1))
	if rep := nd.RecoveryReport(); rep.OwnHeld != 0 || rep.OwnSeen != 2 {
		t.Fatalf("own chain held to %d, seen to %d; want 0 and 2", rep.OwnHeld, rep.OwnSeen)
	}
	nd.Disseminate()
	if built := m.Get(metrics.BlocksBuilt); built != 0 {
		t.Fatalf("built %d blocks beside an own block held in the pending buffer", built)
	}
	nd.DeliverBurst(from(own0))
	nd.Disseminate()
	d := nd.Server().DAG()
	if head, _ := d.HeadRef(0); m.Get(metrics.BlocksBuilt) != 1 || d.Head(0).Next != 3 || !citesHead(nd, own1.Ref()) || head == own1.Ref() {
		t.Fatalf("built %d blocks, own chain to %d: want one, seq 2 on the delivered chain", m.Get(metrics.BlocksBuilt), d.Head(0).Next)
	}
}
