// Package metrics collects the counters behind the paper's quantitative
// claims: how many blocks and bytes actually cross the network versus how
// many protocol messages are merely materialized locally by interpretation
// (message compression), and how much interpretation work is done.
//
// All counters are atomic so the same Metrics value can be shared between
// the deterministic state machines and concurrent transports. A nil
// *Metrics is valid and discards all counts.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Metrics tallies one server's activity.
type Metrics struct {
	blocksBuilt       atomic.Int64
	blocksReceived    atomic.Int64
	blocksInserted    atomic.Int64
	blocksDuplicate   atomic.Int64
	blocksRejected    atomic.Int64
	fwdRequestsSent   atomic.Int64
	fwdRequestsServed atomic.Int64
	wireMessages      atomic.Int64
	wireBytes         atomic.Int64
	requestsEmbedded  atomic.Int64
	msgsMaterialized  atomic.Int64
	blocksInterpreted atomic.Int64
	indications       atomic.Int64
	ownBlockRefs      atomic.Int64

	equivocationsSeen   atomic.Int64
	evidenceReceived    atomic.Int64
	evidenceRelayed     atomic.Int64
	peersBanned         atomic.Int64
	bannedBlocksDropped atomic.Int64

	// Gauges: what the interpreter holds now (SetInterpreterState), and per
	// builder how many blocks of other chains its chain has not read.
	instancesLive    atomic.Int64
	instancesRetired atomic.Int64
	labelsRetired    atomic.Int64
	outMessagesHeld  atomic.Int64
	blocksHolding    atomic.Int64
	chainUnread      atomic.Pointer[[]atomic.Int64]

	// Gauges of gossip's view of the DAG (SetGossipState): what its next
	// own block would cite beyond its parent, the received blocks buffered
	// until a predecessor arrives, and the references asked for by FWD.
	tips          atomic.Int64
	pendingBlocks atomic.Int64
	missingRefs   atomic.Int64
}

// Snapshot is a point-in-time copy of all counters and gauges.
type Snapshot struct {
	BlocksBuilt       int64 // blocks this server built and disseminated
	BlocksReceived    int64 // blocks received from the network
	BlocksInserted    int64 // blocks inserted into the local DAG
	BlocksDuplicate   int64 // received blocks already known
	BlocksRejected    int64 // received blocks that failed validation
	FwdRequestsSent   int64 // FWD requests issued for missing preds
	FwdRequestsServed int64 // FWD requests answered with a block
	WireMessages      int64 // network sends (blocks + FWD traffic)
	WireBytes         int64 // payload bytes handed to the transport
	RequestsEmbedded  int64 // (ℓ, r) pairs written into own blocks
	MsgsMaterialized  int64 // protocol messages simulated, never sent
	BlocksInterpreted int64 // blocks processed by Algorithm 2
	Indications       int64 // indications surfaced by interpretation
	OwnBlockRefs      int64 // references cited by own blocks; ÷ BlocksBuilt = references per block

	EquivocationsSeen   int64 // forked (builder, seq) slots detected locally
	EvidenceReceived    int64 // equivocation proofs accepted (local or gossiped)
	EvidenceRelayed     int64 // evidence messages sent on to peers
	PeersBanned         int64 // peers put in the terminal banned state
	BannedBlocksDropped int64 // fresh blocks refused because their builder is banned

	InstancesLive    int64 // gauge: protocol instances still running, over all chain tips
	InstancesRetired int64 // gauge: tombstones of instances Done on their chain, not yet on every chain
	LabelsRetired    int64 // gauge: labels every chain has finished (the retired set)
	OutMessagesHeld  int64 // gauge: message records in the out-buffers still held
	BlocksHolding    int64 // gauge: blocks holding an out-buffer some chain has not read
	Tips             int64 // gauge: uncited DAG tips, the references the next own block adds to its parent
	PendingBlocks    int64 // gauge: received blocks buffered until their predecessors arrive
	MissingRefs      int64 // gauge: references with a FWD request outstanding
}

// String formats the snapshot compactly for CLI output.
func (s Snapshot) String() string {
	out := fmt.Sprintf(
		"blocks built=%d recv=%d ins=%d dup=%d rej=%d | fwd sent=%d served=%d | wire msgs=%d bytes=%d | reqs=%d simulated-msgs=%d interpreted=%d inds=%d",
		s.BlocksBuilt, s.BlocksReceived, s.BlocksInserted, s.BlocksDuplicate, s.BlocksRejected,
		s.FwdRequestsSent, s.FwdRequestsServed, s.WireMessages, s.WireBytes,
		s.RequestsEmbedded, s.MsgsMaterialized, s.BlocksInterpreted, s.Indications)
	if s.EquivocationsSeen > 0 || s.EvidenceReceived > 0 || s.PeersBanned > 0 {
		out += fmt.Sprintf(" | equiv=%d evidence recv=%d relay=%d banned=%d dropped=%d",
			s.EquivocationsSeen, s.EvidenceReceived, s.EvidenceRelayed, s.PeersBanned, s.BannedBlocksDropped)
	}
	return out
}

// Delta returns the field-wise difference s - prev: the activity between
// two snapshots of the same Metrics. Gateways use it to turn cumulative
// counters into rate windows ("blocks built since the last status poll").
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	return Snapshot{
		BlocksBuilt:       s.BlocksBuilt - prev.BlocksBuilt,
		BlocksReceived:    s.BlocksReceived - prev.BlocksReceived,
		BlocksInserted:    s.BlocksInserted - prev.BlocksInserted,
		BlocksDuplicate:   s.BlocksDuplicate - prev.BlocksDuplicate,
		BlocksRejected:    s.BlocksRejected - prev.BlocksRejected,
		FwdRequestsSent:   s.FwdRequestsSent - prev.FwdRequestsSent,
		FwdRequestsServed: s.FwdRequestsServed - prev.FwdRequestsServed,
		WireMessages:      s.WireMessages - prev.WireMessages,
		WireBytes:         s.WireBytes - prev.WireBytes,
		RequestsEmbedded:  s.RequestsEmbedded - prev.RequestsEmbedded,
		MsgsMaterialized:  s.MsgsMaterialized - prev.MsgsMaterialized,
		BlocksInterpreted: s.BlocksInterpreted - prev.BlocksInterpreted,
		Indications:       s.Indications - prev.Indications,
		OwnBlockRefs:      s.OwnBlockRefs - prev.OwnBlockRefs,

		EquivocationsSeen:   s.EquivocationsSeen - prev.EquivocationsSeen,
		EvidenceReceived:    s.EvidenceReceived - prev.EvidenceReceived,
		EvidenceRelayed:     s.EvidenceRelayed - prev.EvidenceRelayed,
		PeersBanned:         s.PeersBanned - prev.PeersBanned,
		BannedBlocksDropped: s.BannedBlocksDropped - prev.BannedBlocksDropped,

		InstancesLive:    s.InstancesLive - prev.InstancesLive,
		InstancesRetired: s.InstancesRetired - prev.InstancesRetired,
		LabelsRetired:    s.LabelsRetired - prev.LabelsRetired,
		OutMessagesHeld:  s.OutMessagesHeld - prev.OutMessagesHeld,
		BlocksHolding:    s.BlocksHolding - prev.BlocksHolding,
		Tips:             s.Tips - prev.Tips,
		PendingBlocks:    s.PendingBlocks - prev.PendingBlocks,
		MissingRefs:      s.MissingRefs - prev.MissingRefs,
	}
}

// Snapshot returns a copy of all counters. Safe on a nil receiver.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		BlocksBuilt:       m.blocksBuilt.Load(),
		BlocksReceived:    m.blocksReceived.Load(),
		BlocksInserted:    m.blocksInserted.Load(),
		BlocksDuplicate:   m.blocksDuplicate.Load(),
		BlocksRejected:    m.blocksRejected.Load(),
		FwdRequestsSent:   m.fwdRequestsSent.Load(),
		FwdRequestsServed: m.fwdRequestsServed.Load(),
		WireMessages:      m.wireMessages.Load(),
		WireBytes:         m.wireBytes.Load(),
		RequestsEmbedded:  m.requestsEmbedded.Load(),
		MsgsMaterialized:  m.msgsMaterialized.Load(),
		BlocksInterpreted: m.blocksInterpreted.Load(),
		Indications:       m.indications.Load(),
		OwnBlockRefs:      m.ownBlockRefs.Load(),

		EquivocationsSeen:   m.equivocationsSeen.Load(),
		EvidenceReceived:    m.evidenceReceived.Load(),
		EvidenceRelayed:     m.evidenceRelayed.Load(),
		PeersBanned:         m.peersBanned.Load(),
		BannedBlocksDropped: m.bannedBlocksDropped.Load(),

		InstancesLive:    m.instancesLive.Load(),
		InstancesRetired: m.instancesRetired.Load(),
		LabelsRetired:    m.labelsRetired.Load(),
		OutMessagesHeld:  m.outMessagesHeld.Load(),
		BlocksHolding:    m.blocksHolding.Load(),
		Tips:             m.tips.Load(),
		PendingBlocks:    m.pendingBlocks.Load(),
		MissingRefs:      m.missingRefs.Load(),
	}
}

// AddBlocksBuilt counts blocks built and disseminated by this server.
func (m *Metrics) AddBlocksBuilt(n int64) {
	if m != nil {
		m.blocksBuilt.Add(n)
	}
}

// AddOwnBlockRefs counts the references an own block cites — with
// AddBlocksBuilt, the mean references per block this server pays for on the
// wire and on disk.
func (m *Metrics) AddOwnBlockRefs(n int64) {
	if m != nil {
		m.ownBlockRefs.Add(n)
	}
}

// SetGossipState publishes gossip's gauges: the tips (blocks inserted since
// the last own block that no later one reaches), the blocks buffered for
// want of a predecessor, and the references asked for and not yet here.
func (m *Metrics) SetGossipState(tips, pending, missing int) {
	if m != nil {
		m.tips.Store(int64(tips))
		m.pendingBlocks.Store(int64(pending))
		m.missingRefs.Store(int64(missing))
	}
}

// AddBlocksReceived counts blocks received from the network.
func (m *Metrics) AddBlocksReceived(n int64) {
	if m != nil {
		m.blocksReceived.Add(n)
	}
}

// AddBlocksInserted counts blocks inserted into the local DAG.
func (m *Metrics) AddBlocksInserted(n int64) {
	if m != nil {
		m.blocksInserted.Add(n)
	}
}

// AddBlocksDuplicate counts received blocks that were already known.
func (m *Metrics) AddBlocksDuplicate(n int64) {
	if m != nil {
		m.blocksDuplicate.Add(n)
	}
}

// AddBlocksRejected counts received blocks that failed validation.
func (m *Metrics) AddBlocksRejected(n int64) {
	if m != nil {
		m.blocksRejected.Add(n)
	}
}

// AddFwdRequestsSent counts FWD requests issued for missing predecessors.
func (m *Metrics) AddFwdRequestsSent(n int64) {
	if m != nil {
		m.fwdRequestsSent.Add(n)
	}
}

// AddFwdRequestsServed counts FWD requests answered with a block.
func (m *Metrics) AddFwdRequestsServed(n int64) {
	if m != nil {
		m.fwdRequestsServed.Add(n)
	}
}

// AddWireSend counts one network send of the given payload size.
func (m *Metrics) AddWireSend(bytes int64) {
	if m != nil {
		m.wireMessages.Add(1)
		m.wireBytes.Add(bytes)
	}
}

// AddRequestsEmbedded counts (label, request) pairs written into blocks.
func (m *Metrics) AddRequestsEmbedded(n int64) {
	if m != nil {
		m.requestsEmbedded.Add(n)
	}
}

// AddMsgsMaterialized counts protocol messages simulated by interpretation
// — the messages that were never sent over the network.
func (m *Metrics) AddMsgsMaterialized(n int64) {
	if m != nil {
		m.msgsMaterialized.Add(n)
	}
}

// AddBlocksInterpreted counts blocks processed by the interpreter.
func (m *Metrics) AddBlocksInterpreted(n int64) {
	if m != nil {
		m.blocksInterpreted.Add(n)
	}
}

// AddIndications counts indications surfaced to the interpreter callback.
func (m *Metrics) AddIndications(n int64) {
	if m != nil {
		m.indications.Add(n)
	}
}

// InterpreterState counts what an interpreter holds now beyond a watermark
// and a chain link per block (interpret.Stats is this type).
type InterpreterState struct {
	LiveInstances int // process instances in the chain-tip tables
	Tombstones    int // table entries of instances Done on their chain, not yet on every chain
	RetiredLabels int // labels every chain has finished: the retired set
	OutMessages   int // records in the out-buffers held, a broadcast being one
	HoldingBlocks int // blocks holding an out-buffer some chain has not read
}

// SetInterpreterState publishes the interpreter's gauges: what it holds, and
// per builder the blocks of other chains its chain has not read.
func (m *Metrics) SetInterpreterState(s InterpreterState, unread []int) {
	if m == nil {
		return
	}
	m.instancesLive.Store(int64(s.LiveInstances))
	m.instancesRetired.Store(int64(s.Tombstones))
	m.labelsRetired.Store(int64(s.RetiredLabels))
	m.outMessagesHeld.Store(int64(s.OutMessages))
	m.blocksHolding.Store(int64(s.HoldingBlocks))
	gauges := m.chainUnread.Load()
	if gauges == nil || len(*gauges) != len(unread) {
		fresh := make([]atomic.Int64, len(unread))
		gauges = &fresh
		m.chainUnread.Store(gauges)
	}
	for i, v := range unread {
		(*gauges)[i].Store(int64(v))
	}
}

// ChainUnread returns, per builder, how many blocks of the other chains that
// builder's chain has not read, as far as this server knows: the chain that
// is behind, and what holds the interpreter's out-buffers. Nil before the
// first block is interpreted and on a nil receiver.
func (m *Metrics) ChainUnread() []int64 {
	if m == nil {
		return nil
	}
	gauges := m.chainUnread.Load()
	if gauges == nil {
		return nil
	}
	out := make([]int64, len(*gauges))
	for i := range *gauges {
		out[i] = (*gauges)[i].Load()
	}
	return out
}

// AddEquivocationsSeen counts forked slots detected by the local DAG.
func (m *Metrics) AddEquivocationsSeen(n int64) {
	if m != nil {
		m.equivocationsSeen.Add(n)
	}
}

// AddEvidenceReceived counts equivocation proofs newly accepted into the
// evidence pool, whether detected locally or learned from a peer.
func (m *Metrics) AddEvidenceReceived(n int64) {
	if m != nil {
		m.evidenceReceived.Add(n)
	}
}

// AddEvidenceRelayed counts evidence messages forwarded to peers.
func (m *Metrics) AddEvidenceRelayed(n int64) {
	if m != nil {
		m.evidenceRelayed.Add(n)
	}
}

// AddPeersBanned counts peers newly banned on proven equivocation.
func (m *Metrics) AddPeersBanned(n int64) {
	if m != nil {
		m.peersBanned.Add(n)
	}
}

// AddBannedBlocksDropped counts fresh blocks refused because their
// builder is banned (blocks needed as dependencies are still accepted).
func (m *Metrics) AddBannedBlocksDropped(n int64) {
	if m != nil {
		m.bannedBlocksDropped.Add(n)
	}
}
