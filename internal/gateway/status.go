package gateway

import (
	"time"

	"blockdag/internal/node"
	"blockdag/internal/types"
)

// Status is the /v1/status document: what a scrape cannot say — health,
// the reports of the node's start, catch-up and follower, and the store's
// size. A number some /metrics family samples (a counter, the interpreter's
// or the mempool's gauges, a ban) is read there and nowhere else. Every
// field is assembled from concurrency-safe sources only (atomic heads,
// mutex-guarded reports), so the endpoint never races the loop goroutine.
type Status struct {
	Server  int    `json:"server"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`

	// Watermarks maps builder id to the next sequence number this node's
	// DAG holds of the builder's chain (node.Node.Watermarks), forked
	// builders left out. Every node reports them, durable or not; a builder
	// with no block held is absent.
	Watermarks map[types.ServerID]uint64 `json:"watermarks,omitempty"`

	Recovery RecoveryStatus `json:"recovery"`
	CatchUp  *CatchUpStatus `json:"catch_up,omitempty"`
	Follow   *FollowStatus  `json:"follow,omitempty"`
	// StoreBytes is the durable store's on-disk size (omitted without a
	// store).
	StoreBytes int64 `json:"store_bytes,omitempty"`
}

// RecoveryStatus mirrors node.RecoveryReport: what the last start
// replayed from the store (zeros without one) and where the own chain
// stands. A replica that builds nothing has own_chain.held below
// own_chain.seen: it lost its disk, peers hold own blocks it does not, and
// it stays silent until they are back rather than reuse their numbers.
type RecoveryStatus struct {
	Blocks     int            `json:"blocks"`
	ReplayMs   float64        `json:"replay_ms"`
	TornBytes  int64          `json:"torn_bytes"`
	Duplicates int            `json:"duplicates"`
	OwnChain   OwnChainStatus `json:"own_chain"`
}

// OwnChainStatus is 1 + the highest own sequence number the DAG holds,
// and the same over the own blocks peers' streams have shown.
type OwnChainStatus struct {
	Held uint64 `json:"held"`
	Seen uint64 `json:"seen"`
}

// CatchUpStatus mirrors node.CatchUpReport with a JSON-friendly error;
// Peer is absent when no startup stream ended clean.
type CatchUpStatus struct {
	Ran    bool            `json:"ran"`
	Blocks int             `json:"blocks"`
	Peer   *types.ServerID `json:"peer,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// FollowStatus mirrors node.FollowReport with a JSON-friendly error;
// Peer is absent when idle. Present whenever the follower is on.
type FollowStatus struct {
	State     string          `json:"state"`
	Peer      *types.ServerID `json:"peer,omitempty"`
	BehindBy  uint64          `json:"behind_by"`
	Polls     int             `json:"polls"`
	Deltas    int             `json:"deltas"`
	Blocks    int             `json:"blocks"`
	Throttled int             `json:"throttled"`
	Errors    int             `json:"errors"`
	LastError string          `json:"last_error,omitempty"`
}

// nodeStatus reads a node runtime's Status.
func nodeStatus(nd *node.Node) Status {
	st := Status{Server: int(nd.Server().ID()), Healthy: true}
	if err := nd.Err(); err != nil {
		st.Healthy = false
		st.Error = err.Error()
	}
	if wms := nd.Watermarks(); len(wms) > 0 {
		st.Watermarks = make(map[types.ServerID]uint64, len(wms))
		for _, wm := range wms {
			st.Watermarks[wm.Builder] = wm.NextSeq
		}
	}
	rec := nd.RecoveryReport()
	st.Recovery = RecoveryStatus{
		Blocks: rec.Store.Blocks, ReplayMs: float64(rec.Took) / float64(time.Millisecond),
		TornBytes: rec.Store.TornBytes, Duplicates: rec.Store.Duplicates,
		OwnChain: OwnChainStatus{Held: rec.OwnHeld, Seen: rec.OwnSeen},
	}
	if rep := nd.CatchUpReport(); rep.Ran {
		cs := &CatchUpStatus{Ran: true, Blocks: rep.Blocks}
		if rep.Err != nil {
			cs.Error = rep.Err.Error()
		} else {
			cs.Peer = &rep.Peer
		}
		st.CatchUp = cs
	}
	if rep := nd.FollowReport(); rep.State != "" {
		fs := &FollowStatus{
			State: rep.State, BehindBy: rep.BehindBy,
			Polls: rep.Polls, Deltas: rep.Deltas, Blocks: rep.Blocks,
			Throttled: rep.Throttled, Errors: rep.Errors,
		}
		if rep.State != node.FollowIdle {
			fs.Peer = &rep.Peer
		}
		if rep.LastErr != nil {
			fs.LastError = rep.LastErr.Error()
		}
		st.Follow = fs
	}
	if size, ok := nd.StoreDiskSize(); ok {
		st.StoreBytes = size
	}
	return st
}
