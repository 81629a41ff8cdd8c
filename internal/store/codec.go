package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"blockdag/internal/block"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// putBlock lays b out as a WAL record's payload — builder, uvarint seq,
// the predecessors, each named against win (putPred), the requests, the
// signature.
func putBlock(w *wire.Writer, b *block.Block, win *window) {
	w.Uint16(uint16(b.Builder))
	w.Uvarint(b.Seq)
	w.Uvarint(uint64(len(b.Preds)))
	for _, p := range b.Preds {
		win.putPred(w, p)
	}
	w.Uvarint(uint64(len(b.Requests)))
	for _, rq := range b.Requests {
		w.String(string(rq.Label))
		w.VarBytes(rq.Data)
	}
	w.VarBytes(b.Sig)
}

// getBlock inverts putBlock, reading each predecessor with pred, and
// rebuilds the block's canonical frame from the fields — the one encoding
// block.Decode accepts, so byte for byte the frame the block was sealed
// with — and decodes that: the block views a frame of its own, not the
// segment, and carries a freshly computed ref(B), so its signature is
// checked exactly as a gossiped block's is.
func getBlock(r *wire.Reader, pred func(*wire.Reader) (block.Ref, error)) (*block.Block, error) {
	builder := types.ServerID(r.Uint16())
	seq := r.Uvarint()
	nPreds := r.Count(block.MaxPreds)
	preds := make([]block.Ref, 0, nPreds)
	for k := 0; k < nPreds && r.Err() == nil; k++ {
		p, err := pred(r)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	nReqs := r.Count(block.MaxRequests)
	reqs := make([]block.Request, 0, nReqs)
	for k := 0; k < nReqs; k++ {
		reqs = append(reqs, block.Request{
			Label: types.Label(r.String()),
			Data:  r.VarBytesView(),
		})
	}
	sig := r.VarBytesView()
	if err := r.Err(); err != nil {
		return nil, err
	}
	fields := block.Block{Builder: builder, Seq: seq, Preds: preds, Requests: reqs, Sig: sig}
	return block.Decode(fields.Encode())
}

// walWindow is how many of a segment's latest records a WAL record can name
// a predecessor among. A block cites its parent and the tips its builder
// saw since, which every server journals within a round or two of the
// citing block: n to 2n records back at n servers. At n = 16, 16 misses
// some and 32 names them all (cluster's TestJournalCitesByBackReference);
// 64 doubles that for jitter and bursts, and every name is still one byte.
// It is also the most entries a ref is compared against, on write and on
// read.
const walWindow = 64

// window is one WAL segment's back-reference table: the refs of its latest
// walWindow records. It starts empty when a segment opens, so a segment
// reads without any other.
type window struct {
	refs [walWindow]block.Ref
	next int // where the next record's ref goes
	size int // records held, at most walWindow
}

// reset empties the window for a new segment.
func (w *window) reset() { w.next, w.size = 0, 0 }

// push records the ref of the record just written or read.
func (w *window) push(ref block.Ref) {
	w.refs[w.next] = ref
	w.next = (w.next + 1) % walWindow
	w.size = min(w.size+1, walWindow)
}

// at returns the ref of the record k back, 1 being the latest.
func (w *window) at(k int) block.Ref { return w.refs[(w.next-k+walWindow)%walWindow] }

// find returns the distance to the latest record of ref, 0 if the window
// holds none.
func (w *window) find(ref block.Ref) int {
	for k := 1; k <= w.size; k++ {
		if w.at(k) == ref {
			return k
		}
	}
	return 0
}

// putPred names a predecessor the one way it can be: as the distance k ≥ 1
// to its latest record in the window, or as k = 0 and the 32-byte ref.
func (w *window) putPred(out *wire.Writer, ref block.Ref) {
	k := w.find(ref)
	out.Uvarint(uint64(k))
	if k == 0 {
		out.Bytes32(ref)
	}
}

// errNotCanonical reports a WAL record that names a predecessor another
// way than putPred would: a literal the window holds, or a distance past
// the ref's latest record.
var errNotCanonical = errors.New("predecessor not named as the writer names it")

// getPred inverts putPred, refusing every name putPred would not write.
func (w *window) getPred(r *wire.Reader) (block.Ref, error) {
	k := r.Uvarint()
	if r.Err() != nil {
		return block.Ref{}, nil
	}
	if k == 0 {
		ref := r.Bytes32()
		if r.Err() == nil && w.find(ref) != 0 {
			return block.Ref{}, errNotCanonical
		}
		return ref, nil
	}
	if k > uint64(w.size) {
		return block.Ref{}, fmt.Errorf("back-reference %d past the %d records before it", k, w.size)
	}
	ref := w.at(int(k))
	if w.find(ref) != int(k) {
		return block.Ref{}, errNotCanonical
	}
	return ref, nil
}

// putRecord appends b to w as one WAL record — length, CRC32, then the
// block laid out by putBlock with its predecessors named against win —
// leaving win as it was: the caller pushes b's ref once the record stays.
func putRecord(w *wire.Writer, b *block.Block, win *window) {
	start := w.Len()
	w.Uint32(0) // length and checksum, filled in below
	w.Uint32(0)
	putBlock(w, b, win)
	rec := w.Bytes()[start:]
	payload := rec[recHeaderSize:]
	binary.BigEndian.PutUint32(rec, uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
}

// getRecord decodes one WAL record's payload, naming predecessors against
// win, and pushes the block's ref into it.
func getRecord(payload []byte, win *window) (*block.Block, error) {
	r := wire.NewReader(payload)
	b, err := getBlock(r, win.getPred)
	if err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	win.push(b.Ref())
	return b, nil
}
