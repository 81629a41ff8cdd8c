package gateway

import (
	"time"

	"blockdag/internal/node"
	"blockdag/internal/types"
)

// Status is the /v1/status document: what a scrape cannot say — health,
// the reports of the node's start and follower, and the store's size. A
// number some /metrics family samples (a counter, the interpreter's or the
// mempool's gauges, a ban) is read there and nowhere else. Every
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

// FollowStatus mirrors node.FollowReport, errors as text; Peer is absent
// when idle, First before Start. Present whenever the follower is on.
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
	First     *FirstStatus    `json:"first,omitempty"`
}

// FirstStatus mirrors node.FirstPoll: outcome is pending, caught_up (from
// peer), cold_start (no peer was serving yet) or failed (error).
type FirstStatus struct {
	Outcome string          `json:"outcome"`
	Blocks  int             `json:"blocks"`
	Peer    *types.ServerID `json:"peer,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// nodeStatus reads a node runtime's Status.
func nodeStatus(nd *node.Node) Status {
	err := nd.Err()
	st := Status{Server: int(nd.Server().ID()), Healthy: err == nil, Error: errText(err)}
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
	if rep := nd.FollowReport(); rep.State != "" {
		fs := &FollowStatus{
			State: rep.State, BehindBy: rep.BehindBy,
			Polls: rep.Polls, Deltas: rep.Deltas, Blocks: rep.Blocks,
			Throttled: rep.Throttled, Errors: rep.Errors, LastError: errText(rep.LastErr),
		}
		if rep.State != node.FollowIdle {
			fs.Peer = &rep.Peer
		}
		if f := rep.First; f.Outcome != "" {
			fs.First = &FirstStatus{Outcome: f.Outcome, Blocks: f.Blocks, Error: errText(f.Err)}
			if f.Outcome == node.FirstCaughtUp {
				fs.First.Peer = &f.Peer
			}
		}
		st.Follow = fs
	}
	if size, ok := nd.StoreDiskSize(); ok {
		st.StoreBytes = size
	}
	return st
}

// errText is err's message, empty for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
