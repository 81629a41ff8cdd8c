package gateway

import (
	"strconv"

	"blockdag/internal/crypto"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
)

// The constructors below adapt each subsystem's existing concurrency-safe
// counters to the Registry seam. Those over a subsystem a deployment may
// lack (core metrics, transport, sync server, signature tally) tolerate nil
// — the collector then emits nothing; every node has a mempool and a scorer.

// counter is shorthand for a labelless counter sample.
func counter(emit func(Metric), name, help string, v int64) {
	emit(Metric{Name: name, Help: help, Type: Counter, Value: float64(v)})
}

// gauge is shorthand for a labelless gauge sample.
func gauge(emit func(Metric), name, help string, v int64) {
	emit(Metric{Name: name, Help: help, Type: Gauge, Value: float64(v)})
}

// CollectMetrics folds the core metrics.Snapshot — the counters behind
// the paper's quantitative claims — into the scrape.
func CollectMetrics(m *metrics.Metrics) Collector {
	if m == nil {
		return nil
	}
	return func(emit func(Metric)) {
		s := m.Snapshot()
		counter(emit, "dag_blocks_built_total", "Blocks this server built and disseminated.", s.BlocksBuilt)
		counter(emit, "dag_own_block_refs_total", "References cited by own blocks; divide by dag_blocks_built_total for references per block.", s.OwnBlockRefs)
		gauge(emit, "dag_tips", "Uncited DAG tips: the references the next own block adds to its parent.", s.Tips)
		gauge(emit, "gossip_pending_blocks", "Received blocks buffered until their predecessors arrive.", s.PendingBlocks)
		gauge(emit, "gossip_missing_refs", "References with a FWD request outstanding.", s.MissingRefs)
		counter(emit, "dag_blocks_received_total", "Blocks received from the network.", s.BlocksReceived)
		counter(emit, "dag_blocks_inserted_total", "Blocks inserted into the local DAG.", s.BlocksInserted)
		counter(emit, "dag_blocks_duplicate_total", "Received blocks already known.", s.BlocksDuplicate)
		counter(emit, "dag_blocks_rejected_total", "Received blocks that failed validation.", s.BlocksRejected)
		counter(emit, "dag_fwd_requests_sent_total", "FWD requests issued for missing predecessors.", s.FwdRequestsSent)
		counter(emit, "dag_fwd_requests_served_total", "FWD requests answered with a block.", s.FwdRequestsServed)
		counter(emit, "dag_wire_messages_total", "Network sends (blocks plus FWD traffic).", s.WireMessages)
		counter(emit, "dag_wire_bytes_total", "Payload bytes handed to the transport.", s.WireBytes)
		counter(emit, "dag_requests_embedded_total", "(label, request) pairs written into own blocks.", s.RequestsEmbedded)
		counter(emit, "dag_msgs_materialized_total", "Protocol messages simulated by interpretation, never sent.", s.MsgsMaterialized)
		counter(emit, "dag_blocks_interpreted_total", "Blocks processed by the interpreter.", s.BlocksInterpreted)
		counter(emit, "dag_indications_total", "Indications surfaced by interpretation.", s.Indications)
		counter(emit, "dag_equivocations_seen_total", "Forked (builder, seq) slots detected locally.", s.EquivocationsSeen)
		counter(emit, "dag_evidence_received_total", "Equivocation proofs accepted into the pool.", s.EvidenceReceived)
		counter(emit, "dag_evidence_relayed_total", "Evidence messages forwarded to peers.", s.EvidenceRelayed)
		counter(emit, "dag_peers_banned_total", "Peers put in the terminal banned state.", s.PeersBanned)
		counter(emit, "dag_banned_blocks_dropped_total", "Fresh blocks refused because their builder is banned.", s.BannedBlocksDropped)
		gauge(emit, "interpret_instances_live", "Protocol instances still running, over all chain tips.", s.InstancesLive)
		gauge(emit, "interpret_instances_retired", "Tombstones of instances Done on their chain; they go when every chain is Done.", s.InstancesRetired)
		gauge(emit, "interpret_labels_retired", "Labels every chain has finished: the retired set.", s.LabelsRetired)
		gauge(emit, "interpret_out_messages_held", "Message records in out-buffers some chain has not read yet.", s.OutMessagesHeld)
		gauge(emit, "interpret_blocks_holding_buffers", "Blocks holding an out-buffer some chain has not read yet.", s.BlocksHolding)
		for builder, unread := range m.ChainUnread() {
			emit(Metric{Name: "interpret_chain_unread_blocks", Help: "Blocks of other chains this builder's chain, as known here, has not read: what holds out-buffers, and who is behind.",
				Type: Gauge, Labels: [][2]string{{"builder", strconv.Itoa(builder)}}, Value: float64(unread)})
		}
	}
}

// CollectTCPNet folds the TCP transport's handshake and call counters in.
func CollectTCPNet(t *tcpnet.Transport) Collector {
	if t == nil {
		return nil
	}
	return func(emit func(Metric)) {
		counter(emit, "tcpnet_rejections_total", "Inbound connections rejected before payload parse (all causes).", t.Rejections())
		counter(emit, "tcpnet_auth_rejections_total", "Inbound connections rejected by the challenge-response handshake.", t.AuthRejections())
		counter(emit, "tcpnet_ban_rejections_total", "Connections refused because the proven peer is banned.", t.BanRejections())
		counter(emit, "tcpnet_auth_failures_total", "Outbound handshakes that failed against a peer.", t.AuthFailures())
		counter(emit, "tcpnet_calls_opened_total", "Request/response calls opened to peers.", t.CallsOpened())
		counter(emit, "tcpnet_calls_served_total", "Request/response calls served for peers.", t.CallsServed())
	}
}

// CollectSync folds the catch-up server's admission-control drop counters
// in.
func CollectSync(s *syncsvc.Server) Collector {
	if s == nil {
		return nil
	}
	return func(emit func(Metric)) {
		d := s.DropCounts()
		emit(Metric{Name: "syncsvc_drops_total", Help: "Sync-channel requests refused by admission control.",
			Type: Counter, Labels: [][2]string{{"cause", "inflight"}}, Value: float64(d.InFlight)})
		emit(Metric{Name: "syncsvc_drops_total", Help: "Sync-channel requests refused by admission control.",
			Type: Counter, Labels: [][2]string{{"cause", "rate"}}, Value: float64(d.Rate)})
	}
}

// CollectMempool folds the ingestion pool's admission counters and depth
// gauges in.
func CollectMempool(p *mempool.Pool) Collector {
	return func(emit func(Metric)) {
		s := p.Stats()
		counter(emit, "mempool_submitted_total", "Submission attempts, accepted or not.", s.Submitted)
		counter(emit, "mempool_accepted_total", "Requests admitted to the queue.", s.Accepted)
		counter(emit, "mempool_duplicates_total", "Submissions dropped as duplicates.", s.Duplicates)
		counter(emit, "mempool_invalid_total", "Submissions rejected by validation.", s.Invalid)
		counter(emit, "mempool_overflow_total", "Submissions refused with ErrFull.", s.Overflow)
		counter(emit, "mempool_drained_total", "Requests handed to block production.", s.Drained)
		counter(emit, "mempool_requeued_total", "Requests returned after a withheld broadcast.", s.Requeued)
		gauge(emit, "mempool_depth", "Current queue length.", int64(s.Depth))
		gauge(emit, "mempool_peak_depth", "Maximum queue length so far.", int64(s.PeakDepth))
	}
}

// CollectPeerScore folds the accountability scorer's per-peer standing in.
func CollectPeerScore(s *peerscore.Scorer) Collector {
	return func(emit func(Metric)) {
		for _, ps := range s.Snapshot() {
			peer := strconv.Itoa(int(ps.Peer))
			emit(Metric{Name: "peerscore_score", Help: "Decaying misbehaviour score per peer.",
				Type: Gauge, Labels: [][2]string{{"peer", peer}}, Value: ps.Score})
			banned := 0.0
			if ps.Banned {
				banned = 1
			}
			emit(Metric{Name: "peerscore_banned", Help: "1 when the peer is terminally banned.",
				Type: Gauge, Labels: [][2]string{{"peer", peer}}, Value: banned})
			for sig, n := range ps.Signals {
				emit(Metric{Name: "peerscore_signals_total", Help: "Misbehaviour signals recorded per peer and kind.",
					Type: Counter, Labels: [][2]string{{"peer", peer}, {"signal", sig}}, Value: float64(n)})
			}
		}
	}
}

// CollectCrypto folds the signature-operation counters in.
func CollectCrypto(c *crypto.Counters) Collector {
	if c == nil {
		return nil
	}
	return func(emit func(Metric)) {
		counter(emit, "crypto_signed_total", "Ed25519 sign operations.", c.Signed())
		counter(emit, "crypto_verified_total", "Ed25519 verify operations.", c.Verified())
	}
}
