// Package peerscore keeps what a node knows of its peers' misbehaviour: the
// proof behind each ban, and a per-peer count of each other signal, which no
// code acts on. A peer is banned for good, and for proven equivocation only:
// banned means the scorer holds a transferable proof against it (package
// evidence), at most one a peer. The scorer is a node's one in-memory set of
// convictions — gossip convicts, dedups and relays through it; the
// transport, the sync server and the follower read it — and the store's
// head is the durable copy, which seeds it at start (package deploy, which
// shares one scorer between all of them). It carries its own mutex for
// tcpnet's and the sync server's goroutines. A nil *Scorer records nothing
// and reports every peer clean, for callers that stand a transport up alone
// (bench/).
package peerscore

import (
	"sort"
	"strconv"
	"sync"

	"blockdag/internal/evidence"
	"blockdag/internal/metrics"
	"blockdag/internal/types"
)

// Signal classifies a misbehaviour observation.
type Signal int

const (
	BadSignature   Signal = iota // relayed a block whose signature does not verify
	MalformedFrame               // sent a gossip or evidence frame that does not decode
	BadEvidence                  // sent a well-formed proof that does not verify
	AuthFailure                  // failed the transport's mutual handshake
	Throttled                    // hit admission control (honest laggards do too)
)

var signalNames = [...]string{
	BadSignature:   "bad-signature",
	MalformedFrame: "malformed-frame",
	BadEvidence:    "bad-evidence",
	AuthFailure:    "auth-failure",
	Throttled:      "throttled",
}

// String names the signal for stats output.
func (s Signal) String() string {
	if s < 0 || int(s) >= len(signalNames) {
		return "unknown"
	}
	return signalNames[s]
}

type peerState struct {
	proof   *evidence.Proof // the ban: nil while the peer is clean
	signals [len(signalNames)]int64
}

// Scorer tracks convictions and signals per peer. Safe for concurrent use.
type Scorer struct {
	mu    sync.Mutex
	peers map[types.ServerID]peerState
}

// New returns an empty scorer.
func New() *Scorer {
	return &Scorer{peers: make(map[types.ServerID]peerState)}
}

// Penalize counts one of the signals above against the peer.
func (s *Scorer) Penalize(id types.ServerID, sig Signal) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.peers[id]
	ps.signals[sig]++
	s.peers[id] = ps
}

// Convict bans p's equivocator on p, unless a proof against it is held
// already, and reports whether the ban is new: the first proof is the one
// kept, so every later one ends here — which is what makes gossip's relay of
// a proof terminate. p must be verified (evidence.Proof.Verify).
func (s *Scorer) Convict(p *evidence.Proof) bool {
	if s == nil {
		return false
	}
	id := p.Equivocator()
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.peers[id]
	if ps.proof != nil {
		return false
	}
	ps.proof = p
	s.peers[id] = ps
	return true
}

// Banned reports whether the scorer holds a proof against the peer.
func (s *Scorer) Banned(id types.ServerID) bool { return s.Proof(id) != nil }

// Proof returns the proof the peer is banned on, nil for a clean peer.
func (s *Scorer) Proof(id types.ServerID) *evidence.Proof {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[id].proof
}

// Proofs returns every proof held, in ascending equivocator order.
func (s *Scorer) Proofs() []*evidence.Proof {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var out []*evidence.Proof
	for _, ps := range s.peers {
		if ps.proof != nil {
			out = append(out, ps.proof)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Equivocator() < out[j].Equivocator() })
	return out
}

// PeerStat is one peer's accountability snapshot.
type PeerStat struct {
	Peer    types.ServerID
	Banned  bool
	Signals map[string]int64
}

// Snapshot returns every peer with a signal or a ban, in ascending order.
func (s *Scorer) Snapshot() []PeerStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PeerStat, 0, len(s.peers))
	for id, ps := range s.peers {
		st := PeerStat{Peer: id, Banned: ps.proof != nil}
		for sig, n := range ps.signals {
			if n > 0 {
				if st.Signals == nil {
					st.Signals = make(map[string]int64)
				}
				st.Signals[Signal(sig).String()] = n
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

var (
	// Families declares what Collect samples from Snapshot, per peer.
	Families metrics.Table
	banned   = Families.Gauge("peerscore_banned", "1 when the peer is banned: the scorer holds a proof it equivocated.")
	signals  = Families.Counter("peerscore_signals_total", "Misbehaviour signals recorded per peer and kind.")
)

// Collect is the scorer's metrics.Collector: every known peer's standing.
func (s *Scorer) Collect(emit func(metrics.Metric)) {
	for _, ps := range s.Snapshot() {
		peer := strconv.Itoa(int(ps.Peer))
		isBanned := 0.0
		if ps.Banned {
			isBanned = 1
		}
		emit(Families.Sample(banned, isBanned, "peer", peer))
		for sig, n := range ps.Signals {
			emit(Families.Sample(signals, float64(n), "peer", peer, "signal", sig))
		}
	}
}
