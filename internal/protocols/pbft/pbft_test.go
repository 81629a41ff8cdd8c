package pbft

import (
	"bytes"
	"testing"

	"blockdag/internal/protocol"
	"blockdag/internal/types"
)

// cluster wires n PBFT processes for one label through an in-memory
// perfect point-to-point link.
type cluster struct {
	label types.Label
	procs []protocol.Process
	queue []protocol.Message
	// mute suppresses all messages from the given servers (crash model).
	mute map[types.ServerID]bool
}

func newCluster(n int, label types.Label) *cluster {
	c := &cluster{label: label, mute: make(map[types.ServerID]bool)}
	f := (n - 1) / 3
	for i := 0; i < n; i++ {
		cfg := protocol.Config{Self: types.ServerID(i), Label: label, N: n, F: f}
		c.procs = append(c.procs, Protocol{}.NewProcess(cfg))
	}
	return c
}

func (c *cluster) request(server int, data []byte) {
	c.enqueue(types.ServerID(server), c.procs[server].Request(data))
	c.drain()
}

func (c *cluster) enqueue(from types.ServerID, msgs []protocol.Message) {
	if c.mute[from] {
		return
	}
	c.queue = append(c.queue, protocol.Expand(msgs, len(c.procs))...)
}

func (c *cluster) drain() {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		out := c.procs[m.Receiver].Receive(m)
		c.enqueue(m.Receiver, out)
	}
}

func TestLeaderIsDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 4, 7} {
		for _, label := range []types.Label{"a", "b", "slot/0", "slot/1"} {
			l1 := Leader(label, n)
			l2 := Leader(label, n)
			if l1 != l2 {
				t.Fatalf("Leader not deterministic for %q", label)
			}
			if int(l1) >= n {
				t.Fatalf("Leader(%q, %d) = %v out of range", label, n, l1)
			}
		}
	}
}

func leaderOf(c *cluster) int { return int(Leader(c.label, len(c.procs))) }

func TestDecideWithCorrectLeader(t *testing.T) {
	for _, n := range []int{4, 7} {
		c := newCluster(n, "slot")
		c.request(leaderOf(c), []byte("value-1"))
		for i := 0; i < n; i++ {
			inds := c.procs[i].Indications()
			if len(inds) != 1 || !bytes.Equal(inds[0], []byte("value-1")) {
				t.Fatalf("n=%d: server %d decided %q", n, i, inds)
			}
			if !c.procs[i].Done() {
				t.Fatalf("n=%d: server %d not Done", n, i)
			}
		}
	}
}

func TestNonLeaderRequestIgnored(t *testing.T) {
	c := newCluster(4, "slot")
	nonLeader := (leaderOf(c) + 1) % 4
	c.request(nonLeader, []byte("rogue"))
	for i := range c.procs {
		if inds := c.procs[i].Indications(); len(inds) != 0 {
			t.Fatalf("server %d decided %q from a non-leader proposal", i, inds)
		}
	}
}

func TestLeaderProposesOnce(t *testing.T) {
	c := newCluster(4, "slot")
	c.request(leaderOf(c), []byte("first"))
	c.request(leaderOf(c), []byte("second"))
	for i := range c.procs {
		inds := c.procs[i].Indications()
		if len(inds) != 1 || !bytes.Equal(inds[0], []byte("first")) {
			t.Fatalf("server %d decided %q", i, inds)
		}
	}
}

// TestSafetyUnderEquivocatingLeader injects conflicting pre-prepares from
// the leader to different replicas. No two correct servers may decide
// differently (they may not decide at all).
func TestSafetyUnderEquivocatingLeader(t *testing.T) {
	n := 4
	c := newCluster(n, "slot")
	leader := types.ServerID(leaderOf(c))
	for r := 0; r < n; r++ {
		if types.ServerID(r) == leader {
			continue
		}
		v := []byte("a")
		if r%2 == 0 {
			v = []byte("b")
		}
		c.queue = append(c.queue, protocol.Message{
			Label: c.label, Sender: leader, Receiver: types.ServerID(r),
			Payload: encodePayload(msgPrePrepare, v),
		})
	}
	c.drain()
	var decided [][]byte
	for i := 0; i < n; i++ {
		if types.ServerID(i) == leader {
			continue
		}
		decided = append(decided, c.procs[i].Indications()...)
	}
	for i := 1; i < len(decided); i++ {
		if !bytes.Equal(decided[0], decided[i]) {
			t.Fatalf("correct servers decided conflicting values: %q", decided)
		}
	}
}

// TestNoDecisionWithoutQuorum: with f+1 of 4 servers muted, the remaining
// 2 cannot assemble a 2f+1 quorum and must not decide.
func TestNoDecisionWithoutQuorum(t *testing.T) {
	c := newCluster(4, "slot")
	leader := leaderOf(c)
	for i, muted := 0, 0; i < 4 && muted < 2; i++ {
		if i == leader {
			continue
		}
		c.mute[types.ServerID(i)] = true
		muted++
	}
	c.request(leader, []byte("v"))
	for i := range c.procs {
		if c.mute[types.ServerID(i)] {
			continue
		}
		if inds := c.procs[i].Indications(); len(inds) != 0 {
			t.Fatalf("server %d decided %q without quorum", i, inds)
		}
	}
}

func TestMalformedPayloadDropped(t *testing.T) {
	c := newCluster(4, "slot")
	if out := c.procs[0].Receive(protocol.Message{
		Label: "slot", Sender: 1, Receiver: 0, Payload: []byte{0x09},
	}); out != nil {
		t.Fatalf("malformed payload produced %v", out)
	}
}

func TestPrePrepareFromNonLeaderIgnored(t *testing.T) {
	c := newCluster(4, "slot")
	imposter := types.ServerID((leaderOf(c) + 1) % 4)
	out := c.procs[0].Receive(protocol.Message{
		Label: "slot", Sender: imposter, Receiver: 0,
		Payload: encodePayload(msgPrePrepare, []byte("evil")),
	})
	if out != nil {
		t.Fatalf("non-leader pre-prepare accepted: %v", out)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "slot", N: 4, F: 1}
	leader := Leader("slot", 4)
	mk := func() protocol.Process { return Protocol{}.NewProcess(cfg) }
	p1, p2 := mk(), mk()
	seq := []protocol.Message{
		{Label: "slot", Sender: leader, Receiver: 0, Payload: encodePayload(msgPrePrepare, []byte("v"))},
		{Label: "slot", Sender: 1, Receiver: 0, Payload: encodePayload(msgPrepare, []byte("v"))},
		{Label: "slot", Sender: 2, Receiver: 0, Payload: encodePayload(msgPrepare, []byte("v"))},
		{Label: "slot", Sender: 3, Receiver: 0, Payload: encodePayload(msgPrepare, []byte("v"))},
	}
	for _, m := range seq {
		o1, o2 := p1.Receive(m), p2.Receive(m)
		if len(o1) != len(o2) {
			t.Fatal("outputs diverge")
		}
	}
	if !bytes.Equal(p1.StateDigest(), p2.StateDigest()) {
		t.Fatal("digests diverge")
	}
}

// TestEncodePayloadSizedExactly: the writer is sized for the kind byte, the
// uvarint length and the value, so the payload is not grown on the way out.
func TestEncodePayloadSizedExactly(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 256, 16383, 16384, 1 << 16} {
		payload := encodePayload(msgPrepare, make([]byte, n))
		if cap(payload) != len(payload) {
			t.Fatalf("|v|=%d: payload of %d bytes sits in %d", n, len(payload), cap(payload))
		}
	}
}
