package peerscore_test

import (
	"bytes"
	"sync"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/evidence"
	"blockdag/internal/peerscore"
	"blockdag/internal/types"
)

func TestBanIsTerminal(t *testing.T) {
	s := peerscore.New()
	if !s.Convict(dagtest.Proof(2)) {
		t.Fatal("first conviction not reported as new")
	}
	if s.Convict(dagtest.Proof(2)) {
		t.Fatal("second conviction reported as new")
	}
	s.Penalize(2, peerscore.Throttled)
	if !s.Banned(2) || s.Banned(1) {
		t.Fatal("ban not recorded, or recorded against the wrong peer")
	}
}

// TestConvictKeepsOneProofPerPeer: the first proof against a peer is the
// one kept — a second, distinct fork by the same builder changes nothing —
// and a proof against another builder is a ban of its own.
func TestConvictKeepsOneProofPerPeer(t *testing.T) {
	h := dagtest.NewHarness(4)
	seal := func(id int, data string) *block.Block {
		return h.Seal(id, 0, nil, block.Request{Label: "ℓ", Data: []byte(data)})
	}
	a, b, c := seal(1, "a"), seal(1, "b"), seal(1, "c")
	first := evidence.New(a, b)
	s := peerscore.New()
	if !s.Convict(first) || s.Convict(evidence.New(a, c)) || !s.Convict(evidence.New(seal(2, "x"), seal(2, "y"))) {
		t.Fatal("want: the first proof against each builder new, the second against s1 not")
	}
	if got := s.Proof(1); got == nil || !bytes.Equal(got.Encode(), first.Encode()) {
		t.Fatal("Proof(1) is not the first proof convicted")
	}
	if s.Proof(3) != nil || s.Banned(3) {
		t.Fatal("a clean peer holds a proof")
	}
	if ps := s.Proofs(); len(ps) != 2 || ps[0].Equivocator() != 1 || ps[1].Equivocator() != 2 {
		t.Fatalf("Proofs = %v, want s1's and s2's in order", ps)
	}
}

// TestConvictWhileReading: one goroutine convicts while others read the
// bans, the proofs and the snapshot (make race runs it under the race
// detector), and a snapshot's Banned is true exactly for the peers it
// reports a proof for.
func TestConvictWhileReading(t *testing.T) {
	const n = 8
	proofs := make([]*evidence.Proof, n)
	for i := range proofs {
		proofs[i] = dagtest.Proof(types.ServerID(i))
	}
	s := peerscore.New()
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for id := types.ServerID(0); id < n; id++ {
					if s.Banned(id) && s.Proof(id) == nil {
						t.Error("banned without a proof")
					}
				}
				for _, st := range s.Snapshot() {
					if st.Banned != (s.Proof(st.Peer) != nil) {
						t.Errorf("Snapshot's Banned for s%d disagrees with its proof", st.Peer)
					}
				}
			}
		}()
	}
	for i, p := range proofs {
		s.Penalize(p.Equivocator(), peerscore.Throttled)
		if !s.Convict(p) {
			t.Errorf("conviction %d not new", i)
		}
	}
	close(done)
	wg.Wait()
	for _, st := range s.Snapshot() {
		if !st.Banned || s.Proof(st.Peer) != proofs[st.Peer] {
			t.Fatalf("s%d: banned %v on %v, want the proof convicted", st.Peer, st.Banned, s.Proof(st.Peer))
		}
	}
	if len(s.Proofs()) != n {
		t.Fatalf("%d proofs, want %d", len(s.Proofs()), n)
	}
}

func TestSnapshot(t *testing.T) {
	s := peerscore.New()
	s.Penalize(3, peerscore.Throttled)
	s.Penalize(3, peerscore.Throttled)
	s.Convict(dagtest.Proof(1))
	stats := s.Snapshot()
	if len(stats) != 2 || stats[0].Peer != 1 || stats[1].Peer != 3 {
		t.Fatalf("Snapshot = %+v", stats)
	}
	if !stats[0].Banned || stats[1].Banned {
		t.Fatal("ban flags wrong")
	}
	if stats[1].Signals["throttled"] != 2 {
		t.Fatalf("signal counts wrong: %+v", stats[1].Signals)
	}
}

// TestNilScorer: a nil *Scorer is "accountability off" — every method
// must be safe and report every peer clean.
func TestNilScorer(t *testing.T) {
	var s *peerscore.Scorer
	s.Penalize(1, peerscore.BadSignature)
	if s.Convict(dagtest.Proof(1)) || s.Banned(1) || s.Proof(1) != nil || s.Proofs() != nil {
		t.Fatal("nil scorer convicted someone")
	}
	if s.Snapshot() != nil {
		t.Fatal("nil scorer reported state")
	}
}

func TestSignalStrings(t *testing.T) {
	for sig, want := range map[peerscore.Signal]string{
		peerscore.BadSignature:   "bad-signature",
		peerscore.MalformedFrame: "malformed-frame",
		peerscore.BadEvidence:    "bad-evidence",
		peerscore.AuthFailure:    "auth-failure",
		peerscore.Throttled:      "throttled",
		peerscore.Signal(99):     "unknown",
		peerscore.Signal(-1):     "unknown",
	} {
		if sig.String() != want {
			t.Errorf("%d.String() = %q, want %q", sig, sig.String(), want)
		}
	}
}
