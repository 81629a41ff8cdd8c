package state

import (
	"bytes"
	"testing"
)

// FuzzSnapshotChunk hammers the snapshot wire codec: Builder.Add must
// never panic and never partially apply — a rejected chunk leaves the
// builder's cursor and ordering state untouched, so the genuine chunk
// still fits afterwards.
func FuzzSnapshotChunk(f *testing.F) {
	tr := buildTree(48)
	chunks := Export(tr, 256)
	for _, c := range chunks[:min(4, len(chunks))] {
		f.Add(c)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x01, 0x01, 0x41, 0x01, 0x42}) // chunk 0, 1 entry, "A"="B"

	root := tr.Root()
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder(root)
		err := b.Add(data)
		if err != nil {
			// Rejection must be stateless: the real first chunk still
			// applies, and the whole stream still finishes clean.
			for _, c := range chunks {
				if aerr := b.Add(c); aerr != nil {
					t.Fatalf("builder corrupted by rejected chunk: %v", aerr)
				}
			}
			if _, ferr := b.Finish(); ferr != nil {
				t.Fatalf("stream after rejected chunk did not finish: %v", ferr)
			}
			return
		}
		// Accepted as chunk 0: cursor advanced exactly once.
		if b.NextChunk() != 1 {
			t.Fatalf("NextChunk = %d after one accepted chunk", b.NextChunk())
		}
		// Drive the rest of the genuine stream. Finish succeeding means
		// the rebuilt root equals the genuine root, which (collision
		// resistance) means the accepted chunk carried the genuine
		// content — a re-serialization at worst, never a forgery. A
		// content forgery must surface as an explicit error somewhere.
		for _, c := range chunks[1:] {
			if aerr := b.Add(c); aerr != nil {
				return // ordering clash with forged chunk 0 — explicit failure, fine
			}
		}
		_, ferr := b.Finish()
		if bytes.Equal(data, chunks[0]) && ferr != nil {
			t.Fatalf("genuine stream failed: %v", ferr)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
