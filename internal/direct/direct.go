// Package direct runs a deterministic BFT protocol P over materialized,
// individually signed point-to-point network messages — the traditional
// deployment the paper's block DAG approach is measured against
// ("protocols that materialize point-to-point messages as direct network
// messages", Section 1).
//
// It drives the exact same protocol.Process implementations as the block
// DAG embedding, so every difference in the experiment tables — wire
// messages, wire bytes, signatures signed and verified per delivery — is
// attributable to the embedding, not to protocol differences.
package direct

import (
	"errors"
	"fmt"

	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/protocol"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Config assembles a direct-messaging server.
type Config struct {
	// Signer signs every outgoing message. Required.
	Signer *crypto.Signer
	// Roster verifies every incoming message. Required.
	Roster *crypto.Roster
	// Protocol is the deterministic BFT protocol to run. Required.
	Protocol protocol.Protocol
	// Transport sends the materialized messages. Required.
	Transport transport.Transport
	// OnIndication observes this server's indications. Optional.
	OnIndication func(label types.Label, value []byte)
	// Metrics, optional.
	Metrics *metrics.Metrics
}

// Server runs one server's process instances over authenticated direct
// messages. Like core.Server it is a single-threaded state machine.
type Server struct {
	cfg   Config
	self  types.ServerID
	procs map[types.Label]protocol.Process
}

var _ transport.Endpoint = (*Server)(nil)

// NewServer validates the configuration.
func NewServer(cfg Config) (*Server, error) {
	switch {
	case cfg.Signer == nil:
		return nil, errors.New("direct: config needs a Signer")
	case cfg.Roster == nil:
		return nil, errors.New("direct: config needs a Roster")
	case cfg.Protocol == nil:
		return nil, errors.New("direct: config needs a Protocol")
	case cfg.Transport == nil:
		return nil, errors.New("direct: config needs a Transport")
	}
	return &Server{
		cfg:   cfg,
		self:  cfg.Signer.ID(),
		procs: make(map[types.Label]protocol.Process),
	}, nil
}

// Request injects a user request for the given instance and transmits the
// triggered messages.
func (s *Server) Request(label types.Label, data []byte) {
	proc := s.process(label)
	s.dispatch(proc.Request(data))
	s.drainIndications(label, proc)
}

// Deliver implements transport.Endpoint: authenticate, decode, and feed
// one message to the addressed instance, transmitting any responses.
func (s *Server) Deliver(from types.ServerID, payload []byte) {
	m, ok := s.authenticate(payload)
	if !ok {
		return
	}
	_ = from // authenticity comes from the signature, not the link
	if m.Receiver != s.self {
		return
	}
	proc := s.process(m.Label)
	s.dispatch(proc.Receive(m))
	s.drainIndications(m.Label, proc)
}

// process returns (or lazily starts) the instance for a label.
func (s *Server) process(label types.Label) protocol.Process {
	proc, ok := s.procs[label]
	if !ok {
		proc = s.cfg.Protocol.NewProcess(protocol.Config{
			Self:  s.self,
			Label: label,
			N:     s.cfg.Roster.N(),
			F:     s.cfg.Roster.F(),
		})
		s.procs[label] = proc
	}
	return proc
}

// dispatch signs and transmits emitted messages, a broadcast as the n
// messages it stands for; self-addressed messages loop back locally (they
// never cross the network in either deployment, keeping the baseline
// comparison fair).
func (s *Server) dispatch(msgs []protocol.Message) {
	n := s.cfg.Roster.N()
	msgs = protocol.Expand(msgs, n)
	for len(msgs) > 0 {
		m := msgs[0]
		msgs = msgs[1:]
		if m.Receiver == s.self {
			proc := s.process(m.Label)
			msgs = append(msgs, protocol.Expand(proc.Receive(m), n)...)
			s.drainIndications(m.Label, proc)
			continue
		}
		payload := s.seal(m)
		s.cfg.Metrics.Add(metrics.WireMessages, 1)
		s.cfg.Metrics.Add(metrics.WireBytes, int64(len(payload)))
		s.cfg.Metrics.Add(metrics.MsgsMaterialized, 1)
		// The baseline's materialized messages are its protocol
		// traffic, so they ride the same channel gossip blocks would.
		s.cfg.Transport.Send(m.Receiver, transport.ChanGossip, payload)
	}
}

// seal signs one message: the per-message signature the block DAG
// embedding amortizes into one block signature.
func (s *Server) seal(m protocol.Message) []byte {
	enc := m.Encode()
	sig := s.cfg.Signer.Sign(enc)
	w := wire.NewWriter(len(enc) + len(sig) + 8)
	w.VarBytes(enc)
	w.VarBytes(sig)
	return w.Bytes()
}

// authenticate verifies and decodes one wire payload.
func (s *Server) authenticate(payload []byte) (protocol.Message, bool) {
	r := wire.NewReader(payload)
	enc := r.VarBytes()
	sig := r.VarBytes()
	if r.Close() != nil {
		return protocol.Message{}, false
	}
	m, err := protocol.DecodeMessage(enc)
	if err != nil {
		return protocol.Message{}, false
	}
	if !s.cfg.Roster.Verify(m.Sender, enc, sig) {
		return protocol.Message{}, false
	}
	return m, true
}

func (s *Server) drainIndications(label types.Label, proc protocol.Process) {
	for _, value := range proc.Indications() {
		s.cfg.Metrics.Add(metrics.Indications, 1)
		if s.cfg.OnIndication != nil {
			s.cfg.OnIndication(label, value)
		}
	}
}

// Cluster is a convenience harness running n direct servers over a
// transport factory — mirroring package cluster for the baseline side of
// the experiment tables.
type Cluster struct {
	Roster  *crypto.Roster
	Signers []*crypto.Signer
	Servers []*Server
	Metrics []*metrics.Metrics
	inds    [][]indication
}

type indication struct {
	label types.Label
	value []byte
}

// NewCluster builds n direct servers, registering each with register (the
// simnet Register call, typically) and connecting it via transportFor.
// sigCounters, if non-nil, tallies all signature operations.
func NewCluster(
	proto protocol.Protocol,
	n int,
	transportFor func(types.ServerID) transport.Transport,
	register func(types.ServerID, transport.Endpoint),
	sigCounters *crypto.Counters,
) (*Cluster, error) {
	roster, signers, err := crypto.LocalRosterWithCounters(n, sigCounters)
	if err != nil {
		return nil, fmt.Errorf("direct: %w", err)
	}
	c := &Cluster{
		Roster:  roster,
		Signers: signers,
		Servers: make([]*Server, n),
		Metrics: make([]*metrics.Metrics, n),
		inds:    make([][]indication, n),
	}
	for i := 0; i < n; i++ {
		id := types.ServerID(i)
		m := &metrics.Metrics{}
		idx := i
		srv, err := NewServer(Config{
			Signer:    signers[i],
			Roster:    roster,
			Protocol:  proto,
			Transport: transportFor(id),
			Metrics:   m,
			OnIndication: func(label types.Label, value []byte) {
				c.inds[idx] = append(c.inds[idx], indication{label: label, value: value})
			},
		})
		if err != nil {
			return nil, err
		}
		c.Servers[i] = srv
		c.Metrics[i] = m
		register(id, srv)
	}
	return c, nil
}

// Delivered returns the values indicated at one server for a label.
func (c *Cluster) Delivered(server int, label types.Label) [][]byte {
	var out [][]byte
	for _, ind := range c.inds[server] {
		if ind.label == label {
			out = append(out, ind.value)
		}
	}
	return out
}
