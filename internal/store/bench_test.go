package store_test

import (
	"testing"

	"blockdag/internal/store"
)

// BenchmarkStoreAppend measures journaling cost per fsync policy — the
// number the policy trade-off in the package documentation is about.
func BenchmarkStoreAppend(b *testing.B) {
	const pool = 4096
	roster, blocks := chain(b, pool)
	var recBytes int64
	for _, blk := range blocks {
		recBytes += int64(len(blk.Encode()) + 8)
	}
	for _, policy := range []store.SyncPolicy{store.SyncNever, store.SyncInterval, store.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(recBytes / pool)
			var st *store.Store
			i := 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if i == 0 {
					// A fresh store every pool exhaustion: Append
					// dedups by reference, so blocks can only be
					// journaled once per directory. Open cost is
					// amortized over the pool.
					var err error
					st, err = store.Open(b.TempDir(), store.Options{Roster: roster, Sync: policy})
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := st.Append(blocks[i]); err != nil {
					b.Fatal(err)
				}
				i++
				if i == pool {
					i = 0
					if err := st.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if i != 0 {
				_ = st.Close()
			}
		})
	}
}

// BenchmarkStoreAppendBatch measures group-commit journaling:
// the same workload as BenchmarkStoreAppend but appended through
// appendBatch in ingest-burst-sized groups, so a burst costs one write
// syscall pair and one fsync decision instead of one per block. The
// per-op unit stays one block, directly comparable to BenchmarkStoreAppend.
func BenchmarkStoreAppendBatch(b *testing.B) {
	const (
		pool  = 4096
		burst = 64 // node.ingestBurst: what DeliverBatch brackets
	)
	roster, blocks := chain(b, pool)
	var recBytes int64
	for _, blk := range blocks {
		recBytes += int64(len(blk.Encode()) + 8)
	}
	for _, policy := range []store.SyncPolicy{store.SyncNever, store.SyncInterval, store.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(recBytes / pool)
			var st *store.Store
			i := 0
			b.ResetTimer()
			for n := 0; n < b.N; n += burst {
				if i == 0 {
					var err error
					st, err = store.Open(b.TempDir(), store.Options{Roster: roster, Sync: policy})
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := appendBatch(st, blocks[i:i+burst]); err != nil {
					b.Fatal(err)
				}
				i += burst
				if i == pool {
					i = 0
					if err := st.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if i != 0 {
				_ = st.Close()
			}
		})
	}
}

// BenchmarkStoreRecover measures Open throughput — how fast a crashed
// server gets its DAG back — over a WAL of 2 048 blocks.
func BenchmarkStoreRecover(b *testing.B) {
	const blocksN = 2048
	roster, blocks := chain(b, blocksN)
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{Roster: roster, Sync: store.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range blocks {
		if err := st.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
	size, err := st.DiskSize()
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(size)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		st, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(st.Blocks()); got != blocksN {
			b.Fatalf("recovered %d blocks, want %d", got, blocksN)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(blocksN), "blocks/op")
}
