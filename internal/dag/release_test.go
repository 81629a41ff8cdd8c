package dag_test

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
)

// rowJournal answers for released rows from blocks, the DAG's rows in
// insertion order. It checks that it is handed each row's own predecessors,
// and answers the rows in lies with what lies says instead.
type rowJournal struct {
	t      *testing.T
	blocks []*block.Block
	lies   map[int]func(preds []block.Ref) *block.Block
}

func (j *rowJournal) Block(row int, preds []block.Ref) (*block.Block, error) {
	if !slices.Equal(preds, j.blocks[row].Preds) {
		j.t.Errorf("row %d handed %d predecessors other than the block's", row, len(preds))
	}
	if lie := j.lies[row]; lie != nil {
		return lie(preds), nil
	}
	return j.blocks[row], nil
}

// journalReads reads d's journal_block_reads_total.
func journalReads(d *dag.DAG) int64 {
	for id, f := range dag.Families {
		if f.Name == "journal_block_reads_total" {
			return d.Counts().Get(metrics.ID(id))
		}
	}
	panic("no journal_block_reads_total row")
}

// releaseAll lets go of every block d holds.
func releaseAll(d *dag.DAG, n int) {
	frontier := make([]uint64, n)
	for x := range frontier {
		frontier[x] = 1 << 20
	}
	d.Release(frontier)
}

// TestReadBackIsChecked: a released row is read back over the predecessors
// its row keeps — stand-ins included — and the block the journal answers
// must rebuild the row's reference. A journal that answers a row with
// another block, or with the row's frame rebuilt over other predecessors,
// is an error for ReadRow, an absent block for Get and BlockAt, and the end
// of All; every attempt counts as a read.
func TestReadBackIsChecked(t *testing.T) {
	h := dagtest.NewHarness(3)
	first := h.Round(nil)
	for range 4 {
		h.Round(nil)
	}
	var base []dag.Base
	for _, b := range first {
		base = append(base, dag.Base{Builder: b.Builder, Seq: b.Seq, Ref: b.Ref()})
	}
	blocks := h.DAG.Blocks()[len(first):]

	j := &rowJournal{t: t, blocks: blocks}
	d := dag.New(h.Roster)
	if err := d.SeedBase(base); err != nil {
		t.Fatal(err)
	}
	d.SetJournal(j)
	for _, b := range blocks {
		if err := d.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	releaseAll(d, 3)
	for i, b := range blocks {
		if got, err := d.ReadRow(len(base) + i); err != nil || got.Ref() != b.Ref() {
			t.Fatalf("row %d read back as %v (%v), want %v", i, got, err, b.Ref())
		}
	}

	for name, lie := range map[string]func([]block.Ref) *block.Block{
		"another block": func([]block.Ref) *block.Block { return blocks[2] },
		"other preds": func(preds []block.Ref) *block.Block {
			b := blocks[4]
			other := slices.Clone(preds)
			slices.Reverse(other)
			fields := block.Block{Builder: b.Builder, Seq: b.Seq, Preds: other, Requests: b.Requests, Sig: b.Sig}
			b, err := block.Decode(fields.Encode())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	} {
		const row = 4
		j.lies = map[int]func([]block.Ref) *block.Block{row: lie}
		reads := journalReads(d)
		if _, err := d.ReadRow(len(base) + row); err == nil || !strings.Contains(err.Error(), "read back as") {
			t.Fatalf("%s: ReadRow returned %v, want the reference check's error", name, err)
		}
		if got := journalReads(d) - reads; got != 1 {
			t.Fatalf("%s: one read counted as %d", name, got)
		}
		if b, ok := d.Get(blocks[row].Ref()); ok {
			t.Fatalf("%s: Get answered %v", name, b)
		}
		n := 0
		for range d.All() {
			n++
		}
		if n != row {
			t.Fatalf("%s: All yielded %d blocks, want the %d before the bad row", name, n, row)
		}
	}
}

// TestReleaseLetsGoOfEveryDecodedBlock: a block that cites a predecessor
// twice never reaches a DAG — block.Decode refuses it — so Release holds no
// block back for it: the same block citing each predecessor once decodes,
// inserts, is released, and reads back through the journal.
func TestReleaseLetsGoOfEveryDecodedBlock(t *testing.T) {
	h := dagtest.NewHarness(2)
	g0, g1 := h.Genesis(0), h.Genesis(1)
	twice := h.Seal(0, 1, []block.Ref{g0.Ref(), g1.Ref(), g1.Ref()})
	if _, err := block.Decode(bytes.Clone(twice.Encode())); !errors.Is(err, block.ErrRepeatedPred) {
		t.Fatalf("Decode of a block citing a predecessor twice: err = %v, want ErrRepeatedPred", err)
	}
	once, err := block.Decode(bytes.Clone(h.Seal(0, 1, []block.Ref{g0.Ref(), g1.Ref()}).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	blocks := []*block.Block{g0, g1, once}
	d := dag.New(h.Roster)
	d.SetJournal(&rowJournal{t: t, blocks: blocks})
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	releaseAll(d, 2)
	if got, err := d.ReadRow(2); err != nil || got != once || journalReads(d) != 1 {
		t.Fatalf("ReadRow(2) = %v, %v after %d reads; want the block read back once", got, err, journalReads(d))
	}
}
