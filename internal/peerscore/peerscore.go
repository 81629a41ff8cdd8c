// Package peerscore keeps what a node knows of its peers' misbehaviour: a
// terminal ban set, for proven equivocation only (a transferable proof
// convicts the peer beyond doubt), and a per-peer count of each other signal,
// which no code acts on. It carries its own mutex: gossip and the node consult
// it, and so do tcpnet's goroutines. A node shares one with its transport and
// sync server (package deploy). A nil *Scorer records nothing and reports
// every peer clean, for callers that stand a transport up alone (bench/).
package peerscore

import (
	"sort"
	"strconv"
	"sync"

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
	banned  bool
	signals [len(signalNames)]int64
}

// Scorer tracks bans and signals per peer. Safe for concurrent use.
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

// Ban marks the peer banned for good and reports whether it was news.
func (s *Scorer) Ban(id types.ServerID) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.peers[id]
	newly := !ps.banned
	ps.banned = true
	s.peers[id] = ps
	return newly
}

// Banned reports whether the peer is banned.
func (s *Scorer) Banned(id types.ServerID) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[id].banned
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
		st := PeerStat{Peer: id, Banned: ps.banned}
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
	banned   = Families.Gauge("", "peerscore_banned", "1 when the peer is terminally banned.")
	signals  = Families.Counter("", "peerscore_signals_total", "Misbehaviour signals recorded per peer and kind.")
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
