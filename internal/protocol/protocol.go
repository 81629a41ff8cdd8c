// Package protocol defines the black-box abstraction of a deterministic
// BFT protocol P that the block DAG framework embeds (paper Section 4).
//
// A protocol exposes (i) a high-level interface to request r ∈ Rqsts_P and
// an interface where it indicates i ∈ Inds_P, and (ii) a low-level
// interface to receive a message m ∈ M_P. Requests and receives return the
// triggered messages immediately — justified because the interpreter runs
// all process instances locally (paper Section 4).
//
// Determinism is the load-bearing requirement: a state q and a sequence of
// messages must determine the next state and emitted messages, with no
// randomness. Every server interpreting the block DAG replays the same
// deterministic steps and reaches identical conclusions (Lemma 4.2).
//
// Two contracts keep a request's bytes from being copied once per
// message, which is the point of materializing messages locally:
//
//   - Payloads are immutable once emitted. Nobody — process, interpreter,
//     direct runner, observer — writes to a Message.Payload, to the data of
//     a request, or to an indicated value after handing it over. A process
//     may therefore keep sub-slices of what it was given in its state, emit
//     a payload it received again as (part of) its own output, and indicate
//     a value that is a view of a payload; whoever needs bytes of its own
//     copies them at its boundary.
//   - A broadcast is one emission. "Send m to every server" is a single
//     Message addressed to Everyone (FanOut), not n messages. It stands for
//     the n point-to-point messages Expand spells out; a process only ever
//     receives messages addressed to itself.
package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Message is one protocol message m ∈ M_P with m.sender and m.receiver
// (paper Section 2). The payload is the protocol's own canonical encoding,
// immutable once the message is emitted. In the embedding, messages are
// never transmitted: they are materialized locally from DAG edges by the
// interpreter.
type Message struct {
	Label    types.Label
	Sender   types.ServerID
	Receiver types.ServerID
	Payload  []byte
}

// Encode returns the canonical encoding of the message, used both for the
// total order <M and for test digests.
func (m Message) Encode() []byte {
	w := wire.NewWriter(16 + len(m.Payload))
	w.String(string(m.Label))
	w.Uint16(uint16(m.Sender))
	w.Uint16(uint16(m.Receiver))
	w.VarBytes(m.Payload)
	return w.Bytes()
}

// DecodeMessage parses a message encoded by Encode.
func DecodeMessage(data []byte) (Message, error) {
	r := wire.NewReader(data)
	m := Message{
		Label:    types.Label(r.String()),
		Sender:   types.ServerID(r.Uint16()),
		Receiver: types.ServerID(r.Uint16()),
		Payload:  r.VarBytes(),
	}
	if err := r.Close(); err != nil {
		return Message{}, fmt.Errorf("protocol: decode message: %w", err)
	}
	return m, nil
}

// Compare implements the arbitrary-but-fixed total order <M on messages
// (paper Section 2): lexicographic on the canonical encoding. It returns
// -1, 0, or +1.
//
// The comparison is computed field by field without serializing either
// operand (the interpreter sorts every block's in-buffer with it, so it
// is hot and must not allocate). Field-wise equality with
// bytes.Compare(a.Encode(), b.Encode()) follows from uvarint
// prefix-freeness: no uvarint is a proper prefix of another (every byte
// but the last has its continuation bit set), so when two encodings
// first differ inside a length prefix, that byte decides the order
// regardless of what follows — and when the prefixes match, the lengths
// are equal and the comparison proceeds to the fixed-width and content
// bytes in field order. Note the inherited order is NOT plain
// shortlex: for lengths ≥ 128 the uvarint byte strings do not sort
// numerically (e.g. uvarint(300) < uvarint(200)), and Compare
// reproduces exactly that, as the equivalence test asserts.
func Compare(a, b Message) int {
	if c := compareUvarint(uint64(len(a.Label)), uint64(len(b.Label))); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Label), string(b.Label)); c != 0 {
		return c
	}
	// Uint16 is encoded big-endian, so byte order is numeric order.
	if a.Sender != b.Sender {
		if a.Sender < b.Sender {
			return -1
		}
		return 1
	}
	if a.Receiver != b.Receiver {
		if a.Receiver < b.Receiver {
			return -1
		}
		return 1
	}
	if c := compareUvarint(uint64(len(a.Payload)), uint64(len(b.Payload))); c != 0 {
		return c
	}
	return bytes.Compare(a.Payload, b.Payload)
}

// compareUvarint orders x and y by the lexicographic order of their
// uvarint encodings, allocation-free. Identical values encode
// identically; distinct values yield distinct, mutually prefix-free byte
// strings, so the result is exactly what comparing the embedded length
// prefixes inside two encodings would produce.
func compareUvarint(x, y uint64) int {
	if x == y {
		return 0
	}
	var bx, by [binary.MaxVarintLen64]byte
	nx := binary.PutUvarint(bx[:], x)
	ny := binary.PutUvarint(by[:], y)
	return bytes.Compare(bx[:nx], by[:ny])
}

// Config parameterizes one process instance of P: which server it
// simulates, for which instance label, and the system size. Quorum sizes
// derive from N and F as in the paper's system model (n = 3f+1).
type Config struct {
	Self  types.ServerID
	Label types.Label
	N     int
	F     int
}

// Quorum returns the byzantine quorum 2f+1.
func (c Config) Quorum() int { return 2*c.F + 1 }

// Process is one process instance of the deterministic protocol P,
// simulating server Self for instance Label. The interpreter drives it
// exclusively through this interface, treating P as a black box.
//
// Implementations must be deterministic: identical call sequences produce
// identical emitted messages, indications, and state digests. They must
// not consult time, randomness, or any state outside the instance.
type Process interface {
	// Request injects a user request r (opaque payload read from a
	// block's rs field) and returns the messages it triggers.
	Request(data []byte) []Message

	// Receive delivers one message and returns the messages it
	// triggers. The interpreter guarantees messages arrive in <M order
	// within each block interpretation step.
	Receive(m Message) []Message

	// Indications drains the indications i ∈ Inds_P emitted since the
	// last call, in emission order. A value may be a view of a payload
	// and is as immutable as one.
	Indications() [][]byte

	// Done reports that the instance has reached a terminal state: it
	// will indicate nothing further, and nothing it would still emit is
	// needed for any other correct server's instance to indicate. Done
	// is stable — once true, true after every later input. The
	// interpreter asks after every step and, on true, drops the
	// instance for good: its state is gone (StateDigest reports
	// absence) and every request or message the label receives on that
	// chain from then on is discarded. This is the framework's answer
	// to the unbounded-memory limitation the paper discusses in
	// Section 7, and it is unconditional, so an implementation must
	// return true only when the above holds; one that never finishes
	// returns false and is kept.
	Done() bool

	// StateDigest returns a deterministic digest of the full instance
	// state. Lemma 4.2 tests compare digests across interpreters.
	StateDigest() []byte
}

// EntropyAware is an optional extension interface for protocols whose
// original specification uses server-local randomness (random peer
// sampling, randomized backoff, ...). The paper's Section 7 sketches the
// de-randomization: a server's "coin flips" must come from data recorded
// in its blocks so that every interpreter reproduces them.
//
// The interpreter implements exactly that: before advancing an instance
// at a block, it calls SetEntropy with a seed derived deterministically
// from the block's reference and the instance label. The seed is
// unpredictable before the block exists (it depends on the block's hash)
// yet identical for every server interpreting the DAG, so Lemma 4.2
// (interpretation independence) is preserved.
//
// Entropy derived this way is at the builder's discretion — a byzantine
// builder can grind block contents to bias its own coin. That is the
// paper's first randomness class; unbiasable shared coins need an
// embedded coin protocol and are out of scope here as they are there.
type EntropyAware interface {
	// SetEntropy installs the deterministic seed for the steps driven
	// by the current block. Called before Request/Receive batches.
	SetEntropy(seed [32]byte)
}

// Protocol is the factory for process instances: the P the user passes to
// shim(P).
type Protocol interface {
	// Name identifies the protocol (diagnostics only).
	Name() string
	// NewProcess creates the process instance of P for cfg.Self running
	// instance cfg.Label.
	NewProcess(cfg Config) Process
}

// Everyone is the receiver of a broadcast: one Message standing for the
// same payload sent to each of the n servers, the sender included. It
// appears only in what a process emits; a message handed to Receive names
// its concrete receiver. The value is the one ServerID no roster assigns.
const Everyone = types.NilServer

// FanOut builds the message carrying payload from cfg.Self to every server
// in the system, including Self — "send to every s' ∈ Srvrs" in protocol
// pseudocode. Self-addressed messages loop back through the DAG like any
// other (received at the builder's next block via its parent edge).
func FanOut(cfg Config, payload []byte) Message {
	return Unicast(cfg, Everyone, payload)
}

// Count returns how many point-to-point messages msgs stands for in a
// system of n servers: n per broadcast, one per unicast.
func Count(msgs []Message, n int) int {
	count := len(msgs)
	for _, m := range msgs {
		if m.Receiver == Everyone {
			count += n - 1
		}
	}
	return count
}

// Expand returns msgs with every broadcast spelled out as its n unicasts,
// receivers ascending, in place of the broadcast. The result is a new
// slice; the payloads are shared.
func Expand(msgs []Message, n int) []Message {
	out := make([]Message, 0, Count(msgs, n))
	for _, m := range msgs {
		if m.Receiver != Everyone {
			out = append(out, m)
			continue
		}
		for i := 0; i < n; i++ {
			m.Receiver = types.ServerID(i)
			out = append(out, m)
		}
	}
	return out
}

// Unicast builds a single message from cfg.Self to the given receiver.
func Unicast(cfg Config, to types.ServerID, payload []byte) Message {
	return Message{Label: cfg.Label, Sender: cfg.Self, Receiver: to, Payload: payload}
}
