// Package peerscore accumulates per-peer misbehaviour into a decaying
// score with two consequences: quarantine (soft — the peer is deprioritized
// by score-weighted selection, e.g. the live follower's rotating poll)
// and ban (terminal — reserved for proven equivocation, where a
// transferable proof convicts the peer beyond doubt). Transient faults
// decay away; cryptographic proof does not.
//
// The scorer is the one concurrency-tolerant piece of the
// accountability layer: it is consulted from the deterministic state
// machines (gossip, cluster) and from transport goroutines (tcpnet
// readers/senders), so it carries its own mutex. Every core.Server has
// one, and a deployed node shares it with its transport and sync server
// (package deploy). All methods are nil-receiver safe — a nil *Scorer
// records nothing and reports every peer clean — for the callers that
// stand a transport or a gossip instance up alone (tests, bench/).
package peerscore

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"blockdag/internal/metrics"
	"blockdag/internal/types"
)

// Signal classifies a misbehaviour observation. Weights are relative:
// outright protocol violations (an unverifiable signature, a frame that
// does not decode) cost an order of magnitude more than pressure on
// admission control, which honest-but-lagging peers also cause.
type Signal int

const (
	// BadSignature: the peer relayed a block whose signature does not
	// verify. Honest relays never do this — blocks are verified before
	// forwarding.
	BadSignature Signal = iota
	// MalformedFrame: a gossip or evidence frame that fails to decode.
	MalformedFrame
	// BadEvidence: a well-formed evidence frame whose proof does not
	// verify — an attempted frame-up or stale garbage.
	BadEvidence
	// AuthFailure: the peer failed the transport's mutual handshake.
	AuthFailure
	// Throttled: the peer hit sync-channel admission control, or pushed a
	// builder's share of gossip's block buffer over its bound. Weakest
	// signal; flapping honest followers trip it too.
	Throttled
)

func (s Signal) weight() float64 {
	switch s {
	case BadSignature:
		return 10
	case MalformedFrame:
		return 8
	case BadEvidence:
		return 8
	case AuthFailure:
		return 4
	case Throttled:
		return 1
	default:
		return 1
	}
}

// String names the signal for stats output.
func (s Signal) String() string {
	switch s {
	case BadSignature:
		return "bad-signature"
	case MalformedFrame:
		return "malformed-frame"
	case BadEvidence:
		return "bad-evidence"
	case AuthFailure:
		return "auth-failure"
	case Throttled:
		return "throttled"
	default:
		return "unknown"
	}
}

// Options configures a Scorer. The zero value is usable: defaults
// below apply.
type Options struct {
	// Clock supplies monotonic time. Inject the simulator's clock for
	// deterministic tests; default is wall time since construction.
	Clock func() time.Duration
}

// halfLife is the score decay half-life: long enough that a peer
// misbehaving every few seconds stays quarantined, short enough that an old
// fault stops counting within a few minutes. No deployment has set another
// value.
const halfLife = 30 * time.Second

// quarantineAt is the decayed score at which a peer is quarantined
// (deprioritized, not banned): two bad signatures within a half-life, or
// twenty throttled requests. No deployment has set another value.
const quarantineAt = 20

type peerState struct {
	score   float64
	at      time.Duration // clock reading of the last score update
	banned  bool
	signals [Throttled + 1]int64
}

// Scorer tracks scores and bans for a roster's peers. Safe for
// concurrent use; nil-receiver safe (see package doc).
type Scorer struct {
	mu    sync.Mutex
	opts  Options
	start time.Time
	peers map[types.ServerID]*peerState
}

// New returns a scorer with the given options (zero fields defaulted).
func New(opts Options) *Scorer {
	s := &Scorer{opts: opts, peers: make(map[types.ServerID]*peerState)}
	if s.opts.Clock == nil {
		s.start = time.Now()
		s.opts.Clock = func() time.Duration { return time.Since(s.start) }
	}
	return s
}

func (s *Scorer) state(id types.ServerID) *peerState {
	ps := s.peers[id]
	if ps == nil {
		ps = &peerState{}
		s.peers[id] = ps
	}
	return ps
}

// decay brings ps.score forward to now. Callers hold s.mu.
func (s *Scorer) decay(ps *peerState, now time.Duration) {
	if elapsed := now - ps.at; elapsed > 0 && ps.score > 0 {
		ps.score *= math.Exp2(-float64(elapsed) / float64(halfLife))
	}
	ps.at = now
}

// Penalize records a misbehaviour observation against the peer.
func (s *Scorer) Penalize(id types.ServerID, sig Signal) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.state(id)
	s.decay(ps, s.opts.Clock())
	ps.score += sig.weight()
	if sig >= 0 && sig <= Throttled {
		ps.signals[sig]++
	}
}

// Ban marks the peer banned — terminal, never decays — and reports
// whether the peer was newly banned.
func (s *Scorer) Ban(id types.ServerID) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.state(id)
	if ps.banned {
		return false
	}
	ps.banned = true
	return true
}

// Banned reports whether the peer is banned.
func (s *Scorer) Banned(id types.ServerID) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := s.peers[id]
	return ps != nil && ps.banned
}

// BannedPeers returns the banned peers in ascending ID order.
func (s *Scorer) BannedPeers() []types.ServerID {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []types.ServerID
	for id, ps := range s.peers {
		if ps.banned {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pick selects a peer from candidates for the cursor-th poll: banned
// peers are excluded outright, quarantined peers are used only when no
// clean peer exists, and within a tier selection rotates by cursor —
// preserving round-robin fairness among equally well-behaved peers
// (the cost-based selector shape of dag1's peer_selector_cost1). It
// reports false only when every candidate is banned. A nil scorer
// degrades to plain rotation.
func (s *Scorer) Pick(candidates []types.ServerID, cursor int) (types.ServerID, bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	if cursor < 0 {
		cursor = -cursor
	}
	if s == nil {
		return candidates[cursor%len(candidates)], true
	}
	s.mu.Lock()
	now := s.opts.Clock()
	var clean, shaky []types.ServerID
	for _, id := range candidates {
		ps := s.peers[id]
		if ps == nil {
			clean = append(clean, id)
			continue
		}
		if ps.banned {
			continue
		}
		s.decay(ps, now)
		if ps.score >= quarantineAt {
			shaky = append(shaky, id)
		} else {
			clean = append(clean, id)
		}
	}
	s.mu.Unlock()
	if len(clean) > 0 {
		return clean[cursor%len(clean)], true
	}
	if len(shaky) > 0 {
		return shaky[cursor%len(shaky)], true
	}
	return 0, false
}

// PeerStat is one peer's accountability snapshot.
type PeerStat struct {
	Peer    types.ServerID
	Score   float64
	Banned  bool
	Signals map[string]int64
}

// Snapshot returns per-peer stats in ascending peer order, covering
// every peer with a recorded signal or ban.
func (s *Scorer) Snapshot() []PeerStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Clock()
	out := make([]PeerStat, 0, len(s.peers))
	for id, ps := range s.peers {
		s.decay(ps, now)
		st := PeerStat{Peer: id, Score: ps.score, Banned: ps.banned}
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

// Families declares what Collect samples from Snapshot, per peer.
var Families metrics.Table

var (
	score   = Families.Gauge("", "peerscore_score", "Decaying misbehaviour score per peer.")
	banned  = Families.Gauge("", "peerscore_banned", "1 when the peer is terminally banned.")
	signals = Families.Counter("", "peerscore_signals_total", "Misbehaviour signals recorded per peer and kind.")
)

// Collect is the scorer's metrics.Collector: every known peer's standing.
func (s *Scorer) Collect(emit func(metrics.Metric)) {
	for _, ps := range s.Snapshot() {
		peer := strconv.Itoa(int(ps.Peer))
		emit(Families.Sample(score, ps.Score, "peer", peer))
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
