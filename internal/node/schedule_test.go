package node

import (
	"bytes"
	"testing"
	"time"

	"blockdag/internal/types"
)

// The events FuzzSchedule decodes: an op byte, its kind in the low two
// bits, its flags above them, and the bytes a kind reads after it.
const (
	opWait    = 0 // next byte: the clock moves that many 32nds of a period
	opDeliver = 1 // next byte: the builders 1–8 whose blocks the delivery inserted
	opTick    = 2 // the period's tick seals
	opEarly   = 3 // the early turn asks the schedule

	// opDeliver's flags: an instance ran before and after the turn; the
	// inserted blocks are full.
	dBefore, dAfter, dFull = 1 << 2, 1 << 3, 1 << 4
	// opEarly's flags: the pool holds a full block, a request; an instance
	// runs.
	ePoolFull, ePending, eRunning = 1 << 2, 1 << 3, 1 << 4

	// A seal reads one more byte: the guards refuse it (ownSeen, the first
	// poll); the server's Disseminate fails after the turn ran; the block is
	// full; an instance ran before and after its turn; bits 5–7, how many
	// 64ths of a period the turn took.
	sRefused, sFails, sFull, sBefore, sAfter = 1, 1 << 1, 1 << 2, 1 << 3, 1 << 4
	sLong                                    = 4 << 5 // four 64ths

	// The first byte picks n (its low two bits index fuzzN) and whether the
	// node knows its tip from New (hKnowsTip).
	hKnowsTip = 1 << 2
)

var fuzzN = [4]int{1, 4, 7, 16}

// FuzzSchedule drives a schedule with any sequence of the events a node's
// turns feed it, exactly as the turns do, and checks the bound with a
// model kept here: at most two answers in any window of one period; idle
// seals at least idlePeriods periods apart; an answer only under load and
// only once n − f − 1 other builders were heard since the own last block; a
// full seal only when the pool is full; an idle seal only with a request
// pending and no instance running, on a node that knows its tip.
func FuzzSchedule(f *testing.F) {
	const n4 = 1 // fuzzN[1]
	// Three quorums at once, each answered: only two may be.
	f.Add([]byte{n4 | hKnowsTip,
		opDeliver | dFull, 0b11, 0, opDeliver, 0b11, 0, opDeliver, 0b11, 0})
	// Answers at 0 and 68.75 ms, a third exactly a period after the first,
	// and a fourth refused.
	f.Add([]byte{n4,
		opDeliver | dFull, 0b11, sLong, opWait, 20, opDeliver | dFull, 0b11, 0,
		opWait, 10, opDeliver | dFull, 0b11, 0, opDeliver, 0b111, 0})
	// Two idle seals whose requests start nothing, back to back and then
	// four periods apart, less a 32nd and on the dot.
	f.Add([]byte{n4 | hKnowsTip,
		opEarly | ePending, 0, opEarly | ePending, 0,
		opWait, 127, opEarly | ePending, 0, opWait, 1, opEarly | ePending, 0})
	// A quorum answered, then a delivery that brings no one new.
	f.Add([]byte{n4 | hKnowsTip,
		opDeliver | dFull, 0b11, 0, opDeliver | dFull, 0, 0, opDeliver, 0b100, 0})
	// An idle seal wakes the node, and the peers' echoes are answered.
	f.Add([]byte{n4,
		opTick, 0, opWait, 128, opEarly | ePending, sAfter,
		opDeliver | dBefore | dAfter, 0b1, 0, opDeliver | dBefore | dAfter, 0b10, 0,
		opDeliver | dBefore | dAfter, 0b100, 0})
	// Full pools, refused and failing seals, and a lone member.
	f.Add([]byte{0 | hKnowsTip,
		opEarly | ePoolFull, sFull, opEarly | ePoolFull | ePending, sRefused,
		opDeliver, 0, 0, opEarly | ePending, sFails | sAfter, opDeliver | dAfter, 0, 0})
	// Sixteen members, and a long mixed run.
	f.Add(append([]byte{3 | hKnowsTip}, bytes.Repeat([]byte{
		opDeliver | dFull, 0xff, sLong, opWait, 9, opEarly | ePending, sAfter,
		opDeliver | dAfter, 0x0f, 0, opTick, sFull, opWait, 40}, 12)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const period = 100 * time.Millisecond
		n := fuzzN[data[0]&3]
		var now time.Duration
		s := newSchedule(n, (n-1)/3, period, now, data[0]&hKnowsTip != 0)
		m := scheduleModel{t: t, n: n, period: period, knowsTip: data[0]&hKnowsTip != 0, heard: map[types.ServerID]bool{}}
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// seal is disseminate: the guards, the turn, the schedule told.
		seal := func(why reason) {
			b := next()
			if b&sRefused != 0 {
				return
			}
			start := now
			now += time.Duration(b>>5) * period / 64
			woke := s.ran(start, now, b&sBefore != 0, b&sAfter != 0)
			if b&sFails != 0 {
				return
			}
			s.sealed(start, now, why, b&sFull != 0, woke)
			m.sealed(start, now, why, b&sFull != 0 || b&sAfter != 0)
		}
		for len(data) > 0 {
			op := next()
			switch op & 3 {
			case opWait:
				now += time.Duration(next()) * period / 32
			case opDeliver:
				mask, full := next(), op&dFull != 0
				woke := s.ran(now, now, op&dBefore != 0, op&dAfter != 0)
				var peers []types.ServerID
				for i := range 8 {
					if id := types.ServerID(i + 1); mask&(1<<i) != 0 && int(id) < n {
						s.inserted(now, id, full)
						peers = append(peers, id)
					}
				}
				m.delivered(now, peers, full && len(peers) > 0 || op&dAfter != 0)
				if s.delivered(now, woke) == sealAnswer {
					m.answer(now)
					seal(sealAnswer)
				}
			case opTick:
				seal(sealTick)
			case opEarly:
				full, pending, running := op&ePoolFull != 0, op&(ePoolFull|ePending) != 0, op&eRunning != 0
				why := s.early(now, full, pending, running)
				m.early(why, full, pending, running)
				if why != sealTick {
					seal(why)
				}
			}
		}
	})
}

// scheduleModel is FuzzSchedule's reference: what it has seen of the
// events, and the bound checked against it. Its load is looser than the
// schedule's: a period after a full block, sealed or inserted, or after any
// turn that left an instance running, woken or not.
type scheduleModel struct {
	t        *testing.T
	n        int
	period   time.Duration
	knowsTip bool
	heard    map[types.ServerID]bool // other builders heard since the own last block
	loadedAt time.Duration           // the last load event; valid once loaded
	loaded   bool
	answers  []time.Duration // when answers were sealed
	idles    []time.Duration // when idle seals were sealed
}

func (m *scheduleModel) delivered(now time.Duration, peers []types.ServerID, loads bool) {
	for _, id := range peers {
		m.heard[id] = true
	}
	if loads {
		m.loadedAt, m.loaded = now, true
	}
}

// answer checks the schedule's answer at now against load and the quorum.
func (m *scheduleModel) answer(now time.Duration) {
	m.t.Helper()
	if !m.loaded || now >= m.loadedAt+m.period {
		m.t.Fatalf("answer at %v, not under load (last load event: %v, %v)", now, m.loadedAt, m.loaded)
	}
	if quorum := m.n - (m.n-1)/3 - 1; len(m.heard) < quorum {
		m.t.Fatalf("answer at %v with %d other builders heard since the own last block, want %d", now, len(m.heard), quorum)
	}
}

func (m *scheduleModel) early(why reason, full, pending, running bool) {
	m.t.Helper()
	switch {
	case why == sealFull && !full:
		m.t.Fatal("a full seal without a full pool")
	case why == sealIdle && (!pending || running || !m.knowsTip):
		m.t.Fatalf("an idle seal with a request pending %v, an instance running %v, the tip known %v", pending, running, m.knowsTip)
	}
}

// sealed is an own block sealed by a turn from start to end, and checks
// the windows on the times the seals were decided.
func (m *scheduleModel) sealed(start, end time.Duration, why reason, loads bool) {
	m.t.Helper()
	m.knowsTip = true
	clear(m.heard)
	if loads {
		m.loadedAt, m.loaded = end, true
	}
	switch why {
	case sealAnswer:
		m.answers = append(m.answers, start)
		if k := len(m.answers); k >= 3 && start-m.answers[k-3] < m.period {
			m.t.Fatalf("three answers within a period: %v", m.answers[k-3:])
		}
	case sealIdle:
		m.idles = append(m.idles, start)
		if k := len(m.idles); k >= 2 && start-m.idles[k-2] < idlePeriods*m.period {
			m.t.Fatalf("idle seals at %v and %v: within %d periods", m.idles[k-2], start, idlePeriods)
		}
	}
}
