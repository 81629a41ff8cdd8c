// What a node holds, as the sync channel states it: its DAG's chain heads
// as the horizon it asks with (Held) and the vector it answers from
// (Vector), and the comparison (Lag) by which a server decides whether a
// delta request has anything coming. See the package comment for the
// protocol and threat model.

package syncsvc

import (
	"slices"

	"blockdag/internal/dag"
	"blockdag/internal/types"
)

// Lag counts the blocks a watermark vector names outside the local
// horizon, summed over builders: how far behind the vector's holder the
// local node is. A server decides with it whether a delta request gets a
// stream — local is then the requester's horizon, which never omits an
// equivocating builder, so a follower already holding a forked builder's
// blocks is not re-streamed them every poll; variants beyond it ride the
// FWD path.
func Lag(local map[types.ServerID]uint64, peer []Watermark) uint64 {
	var lag uint64
	for _, wm := range peer {
		if have := local[wm.Builder]; wm.NextSeq > have {
			lag += wm.NextSeq - have
		}
	}
	return lag
}

// Behind reports whether a watermark vector names any block outside the
// local horizon (Lag > 0).
func Behind(local map[types.ServerID]uint64, peer []Watermark) bool {
	return Lag(local, peer) > 0
}

// Held states what a DAG holds as a horizon: every builder it holds a row
// of, sorted by builder, its next sequence number the chain's head, and a
// builder whose chain forked included and marked — what a delta request
// states (EncodeRequest), in O(#builders). Safe from any goroutine, as
// dag.DAG.Head is. Never nil.
func Held(d *dag.DAG) []Watermark {
	heads := d.Heads()
	wms := make([]Watermark, 0, len(heads))
	for id, h := range heads {
		if h.Next > 0 {
			wms = append(wms, Watermark{Builder: types.ServerID(id), NextSeq: h.Next, Forked: h.Forked})
		}
	}
	return wms
}

// Vector is Held less the forked builders: the live vector a server compares
// requests with (Server.Watermarks). Safe from any goroutine; never nil.
func Vector(d *dag.DAG) []Watermark {
	return slices.DeleteFunc(Held(d), func(wm Watermark) bool { return wm.Forked })
}
