// Package metrics is the node's one metric system: the counters behind the
// paper's quantitative claims — how many blocks and bytes cross the network
// versus how many protocol messages interpretation merely materializes
// (message compression), how much interpretation work is done — and every
// other subsystem's, declared and rendered the same way.
//
// A metric family is declared once, as one row of a Table: its Prometheus
// name, its help text, its kind. A Metrics is a fixed array of atomics
// counted over a table, and the /metrics exposition (Registry) is a loop
// over the rows. To add a metric, add one row to the table of the package
// that counts it —
//
//	ForksHealed = Families.Counter("dag_forks_healed_total", "Forks ….")
//
// — and call m.Add(metrics.ForksHealed, 1) where it happens. Nothing else
// is written: the scrape, the CLI summary and the smoke targets' family
// lists read the table, and `go test ./internal/deploy -update` regenerates
// what is checked in of it (the golden scrape, the family reference in
// docs/ARCHITECTURE.md). A number has this one rendering: /v1/status
// carries only what no family samples, and a rate is two scrapes
// subtracted.
// A family whose samples are not a fixed set (a label per peer) is declared
// the same way and sampled by its owner's own Collector (Table.Sample).
//
// A Metrics is safe for concurrent use — the deterministic state machines
// and the concurrent transports share one. Its zero value is ready, and a
// nil *Metrics is valid and discards all counts.
package metrics

import "sync/atomic"

// Kind is a family's Prometheus type.
type Kind string

const (
	Counter Kind = "counter" // a monotonically increasing total
	Gauge   Kind = "gauge"   // a point-in-time level
)

// Family is one row of a declaration table.
type Family struct {
	Name   string // Prometheus family name (snake_case, counters end in _total)
	Kind   Kind
	Help   string
	Labels [][2]string // fixed labels: rows of one family differ in these
}

// Table declares the families one subsystem counts. A row's position is its
// ID; rows are only ever appended, by package-level declarations.
type Table []Family

// ID names a row of a Table and the slot of a Metrics that counts it.
type ID int

// maxFamilies bounds a Table read over a Metrics. Raise it when a table
// outgrows it: the first Add past the end panics.
const maxFamilies = 32

// Counter declares a counter and returns its ID. label, if given, is one
// fixed name, value pair.
func (t *Table) Counter(name, help string, label ...string) ID {
	return t.declare(Family{Name: name, Kind: Counter, Help: help, Labels: pairs(label)})
}

// Gauge declares a gauge and returns its ID.
func (t *Table) Gauge(name, help string, label ...string) ID {
	return t.declare(Family{Name: name, Kind: Gauge, Help: help, Labels: pairs(label)})
}

// With declares another row of id's family: the same name, kind and help,
// its fixed label set to value.
func (t *Table) With(id ID, value string) ID {
	f := (*t)[id]
	f.Labels = [][2]string{{f.Labels[0][0], value}}
	return t.declare(f)
}

func (t *Table) declare(f Family) ID {
	*t = append(*t, f)
	return ID(len(*t) - 1)
}

// pairs groups name, value, name, value, … into label pairs.
func pairs(kv []string) [][2]string {
	var out [][2]string
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, [2]string{kv[i], kv[i+1]})
	}
	return out
}

// Sample is the sample of row id with value v; labels (name, value, …) are
// added to the row's fixed ones.
func (t Table) Sample(id ID, v float64, labels ...string) Metric {
	f := t[id]
	return Metric{Name: f.Name, Help: f.Help, Kind: f.Kind, Value: v,
		Labels: append(f.Labels[:len(f.Labels):len(f.Labels)], pairs(labels)...)}
}

// Collector samples every row of t from m. A nil m collects nothing.
func (t Table) Collector(m *Metrics) Collector {
	if m == nil {
		return nil
	}
	return func(emit func(Metric)) {
		for id := range t {
			emit(t.Sample(ID(id), float64(m.Get(ID(id)))))
		}
	}
}

// Metrics is the values of one subsystem's families: one atomic per row of
// the Table it is counted and read over.
type Metrics struct {
	v [maxFamilies]atomic.Int64
}

// Add adds n to counter id.
func (m *Metrics) Add(id ID, n int64) {
	if m != nil {
		m.v[id].Add(n)
	}
}

// Set stores v in gauge id.
func (m *Metrics) Set(id ID, v int64) {
	if m != nil {
		m.v[id].Store(v)
	}
}

// Get returns the current value of row id.
func (m *Metrics) Get(id ID) int64 {
	if m == nil {
		return 0
	}
	return m.v[id].Load()
}

// Families is the table a core server's Metrics (core.Config.Metrics) is
// counted over: gossip, the interpreter, the accountability layer and the
// node runtime that drives the server.
var Families Table

var (
	BlocksBuilt       = Families.Counter("dag_blocks_built_total", "Blocks this server built and signed, one withheld on a persist failure included; crypto_signed_total also counts the snapshot commits it serves.")
	BlocksReceived    = Families.Counter("dag_blocks_received_total", "Blocks received from the network.")
	BlocksInserted    = Families.Counter("dag_blocks_inserted_total", "Blocks inserted into the local DAG; each is interpreted once.")
	BlocksDuplicate   = Families.Counter("dag_blocks_duplicate_total", "Received blocks already known.")
	BlocksRejected    = Families.Counter("dag_blocks_rejected_total", "Received blocks that failed validation.")
	FwdRequestsSent   = Families.Counter("dag_fwd_requests_sent_total", "FWD requests issued for missing predecessors.")
	FwdRequestsServed = Families.Counter("dag_fwd_requests_served_total", "FWD requests answered with a block.")
	WireMessages      = Families.Counter("dag_wire_messages_total", "Network sends (blocks plus FWD traffic).")
	WireBytes         = Families.Counter("dag_wire_bytes_total", "Payload bytes handed to the transport.")
	RequestsEmbedded  = Families.Counter("dag_requests_embedded_total", "(label, request) pairs written into own blocks that went out; a block withheld on a persist failure embeds none, though mempool_drained_total counts its requests.")
	MsgsMaterialized  = Families.Counter("dag_msgs_materialized_total", "Protocol messages simulated by interpretation, never sent.")
	Indications       = Families.Counter("dag_indications_total", "Indications surfaced by interpretation.")
	OwnBlockRefs      = Families.Counter("dag_own_block_refs_total", "References cited by own blocks; divide by dag_blocks_built_total for references per block.")
	BlocksSealedFull  = Families.Counter("dag_blocks_sealed_full_total", "Own blocks sealed before their tick because the mempool held a full block.")
	BlocksSealedIdle  = Families.Counter("dag_blocks_sealed_idle_total", "Own blocks sealed before their tick because a request arrived at an idle node: no protocol instance running on any chain for four periods, or none since start, and an own block built or restored.")
	BlocksAnswered    = Families.Counter("dag_blocks_answered_total", "Own blocks sealed before their tick to answer a delivery: under load (within a period of a full block, its own or a peer's, or of the end of its idleness), once blocks of n - f - 1 other builders were inserted since its last own block, at most two in any period.")

	EquivocationsSeen   = Families.Counter("dag_equivocations_seen_total", "Forked (builder, seq) slots detected locally.")
	EvidenceRelayed     = Families.Counter("dag_evidence_relayed_total", "Evidence messages forwarded to peers.")
	PeersBanned         = Families.Counter("dag_peers_banned_total", "Peers banned in this run on a new proof, detected here or received; a ban the store's proofs restore at start is not counted.")
	BannedBlocksDropped = Families.Counter("dag_banned_blocks_dropped_total", "Fresh blocks refused because their builder is banned.")

	// What the interpreter holds now, beyond a watermark and a chain link
	// per block.
	InstancesLive    = Families.Gauge("interpret_instances_live", "Protocol instances still running, over all chain tips.")
	InstancesRetired = Families.Gauge("interpret_instances_retired", "Tombstones of instances Done on their chain; they go when every chain is Done.")
	LabelsRetired    = Families.Gauge("interpret_labels_retired", "Labels every chain has finished: the retired set.")
	OutMessagesHeld  = Families.Gauge("interpret_out_messages_held", "Message records in out-buffers some chain has not read yet.")
	BlocksHolding    = Families.Gauge("interpret_blocks_holding_buffers", "Blocks holding an out-buffer some chain has not read yet.")

	// Gossip's view of the DAG: what its next own block would cite beyond
	// its parent, and the two queues behind that.
	Tips          = Families.Gauge("dag_tips", "Uncited DAG tips: the references the next own block adds to its parent.")
	PendingBlocks = Families.Gauge("gossip_pending_blocks", "Received blocks buffered until their predecessors arrive.")
	MissingRefs   = Families.Gauge("gossip_missing_refs", "References with a FWD request outstanding.")
)
