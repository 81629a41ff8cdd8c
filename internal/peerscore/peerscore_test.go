package peerscore

import "testing"

func TestBanIsTerminal(t *testing.T) {
	s := New()
	if !s.Ban(2) {
		t.Fatal("first Ban not reported as new")
	}
	if s.Ban(2) {
		t.Fatal("second Ban reported as new")
	}
	s.Penalize(2, Throttled)
	if !s.Banned(2) || s.Banned(1) {
		t.Fatal("ban not recorded, or recorded against the wrong peer")
	}
}

func TestSnapshot(t *testing.T) {
	s := New()
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
	if s.Snapshot() != nil {
		t.Fatal("nil scorer reported state")
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
		Signal(-1):     "unknown",
	} {
		if sig.String() != want {
			t.Errorf("%d.String() = %q, want %q", sig, sig.String(), want)
		}
	}
}
