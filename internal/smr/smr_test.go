package smr

import (
	"bytes"
	"fmt"
	"testing"

	"blockdag/internal/cluster"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/types"
)

// replicated runs n servers with one smr.Log each, wired to the cluster's
// indication records by polling (the cluster harness owns the callback).
type replicated struct {
	c    *cluster.Cluster
	logs []*Log
	seen []int // per server: indications already routed
	// commits[i] records server i's commit order.
	commits [][]string
}

func newReplicated(t *testing.T, n int) *replicated {
	t.Helper()
	c, err := cluster.New(cluster.Options{N: n, Protocol: pbft.Protocol{}, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	r := &replicated{c: c, seen: make([]int, n), commits: make([][]string, n)}
	for i := 0; i < n; i++ {
		idx := i
		r.logs = append(r.logs, New("log", n, c.Servers[i], func(slot uint64, cmd []byte) {
			r.commits[idx] = append(r.commits[idx], fmt.Sprintf("%d:%s", slot, cmd))
		}))
	}
	return r
}

// pump routes new cluster indications into each server's log.
func (r *replicated) pump() {
	for i, log := range r.logs {
		inds := r.c.Indications(i)
		for _, ind := range inds[r.seen[i]:] {
			log.HandleIndication(ind.Label, ind.Value)
		}
		r.seen[i] = len(inds)
	}
}

func (r *replicated) runUntil(t *testing.T, maxRounds int, cond func() bool) {
	t.Helper()
	for round := 0; round < maxRounds; round++ {
		r.pump()
		if cond() {
			return
		}
		if err := r.c.RunRounds(1); err != nil {
			t.Fatal(err)
		}
	}
	r.pump()
	if !cond() {
		t.Fatal("condition not reached")
	}
}

func TestReplicatedLogCommitsInOrder(t *testing.T) {
	const n, slots = 4, 5
	r := newReplicated(t, n)
	for s := uint64(0); s < slots; s++ {
		leader := r.logs[0].Leader(s)
		r.logs[leader].Propose(s, []byte(fmt.Sprintf("cmd-%d", s)))
	}
	r.runUntil(t, 40, func() bool {
		for i := range r.logs {
			if r.logs[i].CommitIndex() < slots {
				return false
			}
		}
		return true
	})
	want := r.commits[0]
	if len(want) != slots {
		t.Fatalf("server 0 committed %d entries: %v", len(want), want)
	}
	for i := 1; i < n; i++ {
		if len(r.commits[i]) != slots {
			t.Fatalf("server %d committed %d entries", i, len(r.commits[i]))
		}
		for s := range want {
			if r.commits[i][s] != want[s] {
				t.Fatalf("commit order diverges: s0=%v s%d=%v", want, i, r.commits[i])
			}
		}
	}
}

// TestGapHoldsBackCommit: a decided later slot stays uncommitted until the
// earlier slot decides.
func TestGapHoldsBackCommit(t *testing.T) {
	r := newReplicated(t, 4)
	// Propose slot 1 only; slot 0 stays open.
	r.logs[r.logs[0].Leader(1)].Propose(1, []byte("late"))
	r.runUntil(t, 30, func() bool {
		_, ok := r.logs[0].decided[1]
		return ok
	})
	if r.logs[0].CommitIndex() != 0 {
		t.Fatalf("commit index %d despite open slot 0", r.logs[0].CommitIndex())
	}
	// Now fill slot 0: both commit, in order.
	r.logs[r.logs[0].Leader(0)].Propose(0, []byte("early"))
	r.runUntil(t, 30, func() bool { return r.logs[0].CommitIndex() >= 2 })
	if got := r.logs[0].decided; !bytes.Equal(got[0], []byte("early")) || !bytes.Equal(got[1], []byte("late")) {
		t.Fatalf("committed prefix = %q", got)
	}
}

func TestForeignLabelsIgnored(t *testing.T) {
	log := New("log", 4, nopSubmitter{}, nil)
	if log.HandleIndication("other/3", []byte("x")) {
		t.Fatal("foreign label consumed")
	}
	if log.HandleIndication("log/notanumber", []byte("x")) {
		t.Fatal("malformed slot consumed")
	}
	if !log.HandleIndication("log/0", []byte("x")) {
		t.Fatal("own label not consumed")
	}
}

func TestLeaderMatchesPBFT(t *testing.T) {
	log := New("log", 4, nopSubmitter{}, nil)
	for s := uint64(0); s < 10; s++ {
		if log.Leader(s) != pbft.Leader(log.Label(s), 4) {
			t.Fatalf("leader mismatch at slot %d", s)
		}
	}
}

type nopSubmitter struct{}

func (nopSubmitter) Request(types.Label, []byte) {}
