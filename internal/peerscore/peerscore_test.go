package peerscore

import (
	"math"
	"testing"
	"time"

	"blockdag/internal/types"
)

// clock is an injectable test clock.
type clock struct{ now time.Duration }

func (c *clock) fn() func() time.Duration { return func() time.Duration { return c.now } }

func newTest(c *clock) *Scorer {
	return New(Options{Clock: c.fn()})
}

// scoreOf is id's decayed score, as Snapshot reports it: 0 for a peer
// without one.
func scoreOf(s *Scorer, id types.ServerID) float64 {
	for _, st := range s.Snapshot() {
		if st.Peer == id {
			return st.Score
		}
	}
	return 0
}

// quarantined reports whether Pick passes id over for a clean peer.
func quarantined(s *Scorer, id types.ServerID) bool {
	peer, _ := s.Pick([]types.ServerID{id, 99}, 0)
	return peer == 99
}

func TestDecay(t *testing.T) {
	c := &clock{}
	s := newTest(c)
	s.Penalize(1, BadSignature) // +10
	s.Penalize(1, BadSignature) // +10 → 20
	if got := scoreOf(s, 1); math.Abs(got-20) > 1e-9 {
		t.Fatalf("score = %v, want 20", got)
	}
	if !quarantined(s, 1) {
		t.Fatal("peer at threshold not quarantined")
	}
	c.now = halfLife
	if got := scoreOf(s, 1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("after one half-life score = %v, want 10", got)
	}
	if quarantined(s, 1) {
		t.Fatal("decayed peer still quarantined")
	}
	c.now = 10 * halfLife
	if got := scoreOf(s, 1); got > 0.05 {
		t.Fatalf("after ten half-lives score = %v, want ≈0", got)
	}
}

func TestBanIsTerminal(t *testing.T) {
	c := &clock{}
	s := newTest(c)
	if !s.Ban(2) {
		t.Fatal("first Ban not reported as new")
	}
	if s.Ban(2) {
		t.Fatal("second Ban reported as new")
	}
	c.now = time.Hour // decay never touches a ban
	if !s.Banned(2) || !quarantined(s, 2) {
		t.Fatal("ban decayed away")
	}
	if got := s.BannedPeers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("BannedPeers = %v", got)
	}
}

func TestPickTiers(t *testing.T) {
	c := &clock{}
	s := newTest(c)
	peers := []types.ServerID{1, 2, 3}

	// All clean: plain rotation.
	for cursor, want := range []types.ServerID{1, 2, 3, 1} {
		if got, ok := s.Pick(peers, cursor); !ok || got != want {
			t.Fatalf("clean Pick(%d) = %v,%v, want %v", cursor, got, ok, want)
		}
	}
	// Quarantine 2: rotation over the clean tier only.
	s.Penalize(2, BadSignature)
	s.Penalize(2, BadSignature)
	for cursor, want := range []types.ServerID{1, 3, 1} {
		if got, ok := s.Pick(peers, cursor); !ok || got != want {
			t.Fatalf("quarantine Pick(%d) = %v,%v, want %v", cursor, got, ok, want)
		}
	}
	// Quarantine all: the shaky tier is better than nothing.
	s.Penalize(1, BadSignature)
	s.Penalize(1, BadSignature)
	s.Penalize(3, BadSignature)
	s.Penalize(3, BadSignature)
	if _, ok := s.Pick(peers, 0); !ok {
		t.Fatal("all-quarantined Pick found no peer")
	}
	// Ban all: nothing left.
	for _, id := range peers {
		s.Ban(id)
	}
	if _, ok := s.Pick(peers, 0); ok {
		t.Fatal("all-banned Pick still found a peer")
	}
	// Negative cursors must not panic or break rotation.
	s2 := newTest(c)
	if got, ok := s2.Pick(peers, -4); !ok || got != 2 {
		t.Fatalf("negative cursor Pick = %v,%v", got, ok)
	}
}

func TestSnapshot(t *testing.T) {
	c := &clock{}
	s := newTest(c)
	s.Penalize(3, Throttled)
	s.Penalize(3, Throttled)
	s.Ban(1)
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
	var s *Scorer
	s.Penalize(1, BadSignature)
	if s.Ban(1) || s.Banned(1) {
		t.Fatal("nil scorer convicted someone")
	}
	if s.BannedPeers() != nil || s.Snapshot() != nil {
		t.Fatal("nil scorer reported state")
	}
	peers := []types.ServerID{4, 5}
	if got, ok := s.Pick(peers, 1); !ok || got != 5 {
		t.Fatalf("nil Pick = %v,%v, want plain rotation", got, ok)
	}
	if _, ok := s.Pick(nil, 0); ok {
		t.Fatal("Pick over no candidates succeeded")
	}
}

func TestSignalStrings(t *testing.T) {
	for sig, want := range map[Signal]string{
		BadSignature:   "bad-signature",
		MalformedFrame: "malformed-frame",
		BadEvidence:    "bad-evidence",
		AuthFailure:    "auth-failure",
		Throttled:      "throttled",
		Signal(99):     "unknown",
	} {
		if sig.String() != want {
			t.Errorf("%d.String() = %q, want %q", sig, sig.String(), want)
		}
	}
}
