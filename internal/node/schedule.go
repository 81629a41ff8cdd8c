package node

import (
	"time"

	"blockdag/internal/block"
	"blockdag/internal/types"
)

// schedule is when a node builds a block: the build rule and all the state
// it keeps, with no server, clock, interpreter, DAG or channel inside. The
// node's turns feed it events, each stamped with the time the turn read on
// the server's clock (ran, inserted, delivered, early, sealed), and the facts
// they read of the node (tick, early), and seal when it answers a reason. The
// paper leaves the schedule open — Algorithm 3 disseminates "repeatedly", and
// Theorem 5.1 holds for any schedule — so the rule moves latency and cost,
// never what a block means.
//
// A node builds for one of four reasons:
//   - sealTick: its period's tick (Config.DisseminateEvery), when the node
//     has something to build for (tick): a request pending; an instance
//     running on a chain of its DAG (interpret.Interpreter.Running); a
//     block holding an out-buffer its own chain has not read, its own last
//     block's included (Interpreter.Unread); no block built since New
//     (built), a restarted node's first included, which shows its peers
//     where it stands; or, on a node that prunes (Config.State), a quiet point
//     its own chain has not passed (Interpreter.Passed), so the cut can
//     reach it. Without one the tick seals nothing: an idle cluster builds
//     nothing, and every tick skipped falls after every instance the node
//     simulates is done.
//   - sealFull: the mempool holds a full block (isFull).
//   - sealIdle: a request is pending on an idle node. A node is idle when no
//     instance has run on any chain of its DAG for idlePeriods periods, or
//     none since New, and it knows its own chain's tip: it built a block
//     since New, or New restored own blocks from its store. A node that has
//     built nothing cannot tell a new identity from one whose past is on its
//     way back from its peers, so its first block waits for its tick.
//   - sealAnswer: a delivery, while the node is under load, once blocks of
//     n − f − 1 other builders were inserted since its own last block,
//     whichever reason sealed that: a quorum, n − f, counting itself. A BRB
//     phase needs 2f + 1 distinct echoes or READYs, exactly what a quorum's
//     blocks carry, so under load each phase is answered at network speed
//     instead of at the builders' ticks. An idle node's own last block is
//     old, so the blocks that ended the last spell count: a request that
//     wakes it is answered at once.
//
// A node is under load for one period after it sealed a full block or a
// delivery inserted a peer's, and after a turn that woke it: found it idle
// and left an instance running — an idle seal, a tick sealing a request, or
// a delivered block that started an instance. A block buffered for a missing
// predecessor counts in the delivery that inserts it; a pulled block never
// counts (absorb feeds no event), and neither does a request that starts
// nothing, such as a replay of a label every chain has finished.
//
// The bound, on the server's clock and whatever peers send: at most one tick
// a period, two answers in any window of one period (answeredAt), and one
// idle seal in any idlePeriods periods, for an idle seal restarts the idle
// clock whatever its request starts. So beside its full seals a node builds
// at most its tick, two answers a period and one idle seal in idlePeriods
// periods. Every block costs each peer a signature check, and the bound is
// what keeps a Byzantine sender from making a correct node build without
// limit. FuzzSchedule checks it on any sequence of events.
//
// The bound in DAG terms: every own block clears heard, so an answer's
// ancestry holds blocks of n − f − 1 ≥ f + 1 builders that its parent's
// does not, one of them correct. Only ticks, full seals and idle seals can
// follow one another with no new peer block, and as the code stands nothing
// in the DAG bounds that run. Ticks come one a period and idle seals one in
// idlePeriods periods for as long as a reason holds. Full seals come back to
// back, one block per loop iteration (DisseminateEarly), for as long as the
// pool holds a full block: a full pool of mempool.DefaultCapacity requests
// drains in 256 blocks of block.MaxRequests, and a client that keeps the
// pool full keeps them coming. The run is bounded by the pool and its
// clients, not by time.
type schedule struct {
	period time.Duration
	quorum int // n − f − 1: the other builders an answer waits for

	// answeredAt is when the last two answers went out, older first;
	// loadUntil is when the load ends; heard is the set of other builders
	// whose blocks a delivery inserted since the own last block; busyAt is
	// when a turn last found or left an instance running, or the last idle
	// seal; knowsTip is whether the node knows its own chain's tip, and
	// built whether it sealed a block since New.
	answeredAt [2]time.Duration
	loadUntil  time.Duration
	heard      map[types.ServerID]struct{}
	busyAt     time.Duration
	knowsTip   bool
	built      bool
}

// reason is why an own block is sealed.
type reason uint8

const (
	sealTick   reason = iota // the period's tick; from early or delivered: nothing seals before it
	sealFull                 // the mempool holds a full block
	sealIdle                 // a request on an idle node
	sealAnswer               // a quorum's blocks, under load
)

// fullBlockBytes is the payload (labels and data) that makes a block full,
// whatever the roster's size. A full seal carries at least 2 KiB of payload
// against 80 + 32(n + 1) B of fixed bytes, so it adds at most 11.7 % to
// wire and disk at n = 4, 21.1 % at n = 10 and 30.5 % at n = 16, whatever
// the load. A threshold that grew with n would make a loaded builder's fill
// wait, and so its latency, grow with the roster.
const fullBlockBytes = 2 << 10

// idlePeriods is how many periods no instance may have run for a node to be
// idle. A wake costs about nine blocks at n = 4 — the seal and two answers a
// node — so it sets how often a light load pays one: at four, only a lull
// of most of a second wakes dagbench's sparse load.
const idlePeriods = 4

// newSchedule is the schedule of a node of a roster of n with f faulty,
// built at now: no answer yet, as if the last two went out a period ago,
// and never busy, so idle as soon as it knows its own chain's tip.
func newSchedule(n, f int, period, now time.Duration, knowsTip bool) schedule {
	return schedule{
		period:     period,
		quorum:     n - f - 1,
		answeredAt: [2]time.Duration{now - period, now - period},
		heard:      make(map[types.ServerID]struct{}, n),
		busyAt:     now - idlePeriods*period,
		knowsTip:   knowsTip,
	}
}

// ran is a turn that delivered or built, begun at start with an instance
// running or not (before) and ended at end with one running or not (after):
// it keeps the idle clock, and reports whether the turn woke the node.
func (s *schedule) ran(start, end time.Duration, before, after bool) (woke bool) {
	woke = s.idle(start, before) && after
	if before || after {
		s.busyAt = end
	}
	return woke
}

// inserted is another builder's block a delivery inserted at now, full or
// not.
func (s *schedule) inserted(now time.Duration, builder types.ServerID, full bool) {
	s.heard[builder] = struct{}{}
	if full {
		s.loadUntil = now + s.period
	}
}

// delivered is the end of a delivery turn at now, after its inserted
// blocks, woke as ran reported it. It answers sealAnswer or sealTick.
func (s *schedule) delivered(now time.Duration, woke bool) reason {
	if woke {
		s.loadUntil = now + s.period
	}
	if now < s.loadUntil && now >= s.answeredAt[0]+s.period && len(s.heard) >= s.quorum {
		return sealAnswer
	}
	return sealTick
}

// tick is the period turn: whether its tick seals, given whether the
// mempool holds a request (pending), an instance runs (running), a block
// holds an out-buffer the own chain has not read (unread) and, on a
// node that prunes, the own chain has not passed the pending quiet point
// (quiet). With none of them, once it has built since New, it has no
// reason.
func (s *schedule) tick(pending, running, unread, quiet bool) bool {
	return pending || running || unread || quiet || !s.built
}

// early is the early turn at now: whether the mempool holds a full block
// (full) or a request (pending), and whether an instance runs. It answers
// sealFull, sealIdle or sealTick.
func (s *schedule) early(now time.Duration, full, pending, running bool) reason {
	switch {
	case full:
		return sealFull
	case pending && s.idle(now, running):
		return sealIdle
	}
	return sealTick
}

// sealed is an own block sealed for why, full or not, by a turn begun at
// start and ended at end that woke the node or not. An answer counts in its
// window from start, when it was decided.
func (s *schedule) sealed(start, end time.Duration, why reason, full, woke bool) {
	s.knowsTip, s.built = true, true
	clear(s.heard)
	if full || woke {
		s.loadUntil = end + s.period
	}
	switch why {
	case sealAnswer:
		s.answeredAt = [2]time.Duration{s.answeredAt[1], start}
	case sealIdle:
		s.busyAt = end
	}
}

// idle reports whether the node is idle at now, with an instance running or
// not.
func (s *schedule) idle(now time.Duration, running bool) bool {
	return s.knowsTip && !running && now-s.busyAt >= idlePeriods*s.period
}

// isFull is the one definition of a full block, pending in the mempool or
// built: fullBlockBytes of payload, or block.MaxRequests requests, at every
// roster size.
func isFull(payload, requests int) bool {
	return payload >= fullBlockBytes || requests >= block.MaxRequests
}

// blockFull is isFull of a built block.
func blockFull(b *block.Block) bool {
	payload := 0
	for _, rq := range b.Requests {
		payload += len(rq.Label) + len(rq.Data)
	}
	return isFull(payload, len(b.Requests))
}
