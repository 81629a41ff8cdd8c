// Package smr builds totally-ordered state machine replication on top of
// the block DAG framework, the way Blockmania-style systems use their
// embedded consensus: one deterministic PBFT instance per log slot, slot
// labels derived from a shared log name, leaders rotating per slot.
//
// The package demonstrates the "user of P" layer from the paper's
// Figure 1: it talks to shim(P) purely through request(ℓ, r) and
// indications, multiplexing unboundedly many instances — one per slot —
// over the same block stream.
//
// Liveness inherits pbft's caveat: a slot whose leader never proposes (or
// is byzantine) stays undecided, and in-order commit holds back later
// slots — view changes need timeouts, which the paper defers (Section 7).
// Safety is unconditional: no two correct replicas ever commit different
// commands at the same slot.
package smr

import (
	"fmt"
	"strconv"
	"strings"

	"blockdag/internal/protocols/pbft"
	"blockdag/internal/types"
)

// Submitter is the slice of shim(P) the log needs: request(ℓ, r).
// *core.Server implements it.
type Submitter interface {
	Request(label types.Label, data []byte)
}

// Log is one replica's view of a named replicated log. It is driven by
// the owning server's indication callback (HandleIndication) and is not
// safe for concurrent use beyond that single driver.
type Log struct {
	name     string
	n        int
	submit   Submitter
	decided  map[uint64][]byte
	next     uint64 // lowest uncommitted slot
	onCommit func(slot uint64, cmd []byte)
}

// New creates a replica's log handle. name scopes the slot labels so
// multiple logs can share one cluster; n is the roster size; onCommit, if
// non-nil, observes commands as they commit in slot order.
func New(name string, n int, submit Submitter, onCommit func(slot uint64, cmd []byte)) *Log {
	return &Log{
		name:     name,
		n:        n,
		submit:   submit,
		decided:  make(map[uint64][]byte),
		onCommit: onCommit,
	}
}

// Label returns the instance label for a slot: "<name>/<slot>".
func (l *Log) Label(slot uint64) types.Label {
	return types.Label(l.name + "/" + strconv.FormatUint(slot, 10))
}

// Leader returns the server that must propose for the slot.
func (l *Log) Leader(slot uint64) types.ServerID {
	return pbft.Leader(l.Label(slot), l.n)
}

// Propose submits a command for a slot. Per pbft semantics the request
// only takes effect at the slot's leader; proposing at other replicas is
// harmless (their instances ignore it).
func (l *Log) Propose(slot uint64, cmd []byte) {
	l.submit.Request(l.Label(slot), cmd)
}

// HandleIndication consumes one shim indication. It returns true if the
// label belonged to this log (and was recorded), false otherwise — so a
// server's indication callback can route between logs and other uses.
func (l *Log) HandleIndication(label types.Label, value []byte) bool {
	slot, ok := l.parse(label)
	if !ok {
		return false
	}
	if _, dup := l.decided[slot]; dup {
		return true // pbft decides once; defensive all the same
	}
	l.decided[slot] = append([]byte(nil), value...)
	// Advance the in-order commit frontier.
	for {
		cmd, ok := l.decided[l.next]
		if !ok {
			break
		}
		if l.onCommit != nil {
			l.onCommit(l.next, cmd)
		}
		l.next++
	}
	return true
}

func (l *Log) parse(label types.Label) (uint64, bool) {
	s := string(label)
	prefix := l.name + "/"
	if !strings.HasPrefix(s, prefix) {
		return 0, false
	}
	slot, err := strconv.ParseUint(s[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return slot, true
}

// CommitIndex returns the lowest uncommitted slot (= number of committed
// entries).
func (l *Log) CommitIndex() uint64 { return l.next }

// String summarizes the log state for diagnostics.
func (l *Log) String() string {
	return fmt.Sprintf("smr.Log(%s: committed=%d decided=%d)", l.name, l.next, len(l.decided))
}
