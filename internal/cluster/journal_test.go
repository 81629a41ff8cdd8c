package cluster_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blockdag/internal/cluster"
	"blockdag/internal/protocols/brb"
)

// citations reads one kind-4 WAL record's predecessor names, in the layout
// store/doc.go gives — builder (2 bytes), uvarint seq, uvarint count, then
// per predecessor a uvarint k, followed by the 32-byte ref when k is 0 —
// and counts them and the literals among them.
func citations(payload []byte) (preds, literals int) {
	r := payload[2:]
	_, m := binary.Uvarint(r)
	r = r[m:]
	count, m := binary.Uvarint(r)
	r = r[m:]
	for range count {
		k, m := binary.Uvarint(r)
		r = r[m:]
		if k == 0 {
			literals++
			r = r[32:]
		}
	}
	return int(count), literals
}

// TestJournalCitesByBackReference: in a seeded cluster where every server
// journals every block, each WAL record past its segment's first n names
// every predecessor by its distance back into the segment, never by its
// 32-byte ref — the property store's back-reference window is sized for,
// at n = 4 and n = 16. It logs what a block costs on disk beside what the
// same records cost as raw frames; both are exact, the run being seeded.
func TestJournalCitesByBackReference(t *testing.T) {
	for _, n := range []int{4, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			c, err := cluster.New(cluster.Options{
				N: n, Protocol: brb.Protocol{}, Seed: 5, StoreDir: dir, LoadPerRound: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RunRounds(30); err != nil {
				t.Fatal(err)
			}
			var records, preds, cited, diskBytes, frameBytes int
			for slot, st := range c.Stores {
				for b := range c.Servers[slot].DAG().All() {
					frameBytes += 8 + b.EncodedSize()
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				wals, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("s%d", slot), "*.wal"))
				if err != nil || len(wals) == 0 {
					t.Fatalf("s%d: WAL segments %v (err %v)", slot, wals, err)
				}
				for _, wal := range wals {
					data, err := os.ReadFile(wal)
					if err != nil {
						t.Fatal(err)
					}
					if data[8] != 4 {
						t.Fatalf("%s is a kind-%d segment, want kind 4", wal, data[8])
					}
					diskBytes += len(data)
					frameBytes += 9
					for off, i := 9, 0; off < len(data); i++ {
						size := int(binary.BigEndian.Uint32(data[off:]))
						p, literals := citations(data[off+8 : off+8+size])
						if i >= n && literals > 0 {
							t.Errorf("%s: record %d names %d of its %d predecessors by ref", wal, i, literals, p)
						}
						records++
						preds += p
						cited += p - literals
						off += 8 + size
					}
				}
			}
			t.Logf("n=%d: %d records citing %d predecessors, %d by back-reference; %.1f B a block on disk, %.1f B as raw frames",
				n, records, preds, cited, float64(diskBytes)/float64(records), float64(frameBytes)/float64(records))
		})
	}
}
