package engine

import (
	"fmt"
	"testing"

	"provnet/internal/data"
)

// BenchmarkTableInsertLookup measures the hashed table hot path: insert
// of distinct rows (identity- and keyed-table variants) and Get hits
// against a warm table.
func BenchmarkTableInsertLookup(b *testing.B) {
	const rows = 1024
	tuples := make([]data.Tuple, rows)
	for i := range tuples {
		tuples[i] = data.NewTuple("edge",
			data.Str(fmt.Sprintf("n%d", i%32)), data.Int(int64(i)), data.Int(int64(i*7)))
	}

	b.Run("insert-identity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += rows {
			tbl := NewTable("edge", nil, -1, -1)
			for _, tu := range tuples {
				tableInsert(tbl, tu, 0)
			}
		}
	})
	b.Run("insert-keyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += rows {
			tbl := NewTable("edge", []int{0, 1}, -1, -1)
			for _, tu := range tuples {
				tableInsert(tbl, tu, 0)
			}
		}
	})

	warm := NewTable("edge", nil, -1, -1)
	for _, tu := range tuples {
		tableInsert(warm, tu, 0)
	}
	b.Run("get-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if warm.Get(tuples[i%rows]) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		miss := data.NewTuple("edge", data.Str("absent"), data.Int(-1), data.Int(-1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if warm.Get(miss) != nil {
				b.Fatal("hit")
			}
		}
	})
}

// BenchmarkJoinProbe measures an indexed join probe: hash the bound
// columns, hit the lazily built column index, and walk the matching
// bucket — the inner loop of every rule join.
func BenchmarkJoinProbe(b *testing.B) {
	tbl := NewTable("feed", nil, -1, -1)
	const keys = 64
	for k := 0; k < keys; k++ {
		for j := 0; j < 8; j++ {
			tableInsert(tbl, data.NewTuple("feed",
				data.Str("hub"), data.Int(int64(k)), data.Int(int64(k*100+j))), 0)
		}
	}
	cols := []int{0, 1}
	vals := make([]data.Value, 2)
	// Build the index outside the timed loop.
	vals[0], vals[1] = data.Str("hub"), data.Int(0)
	if got := len(bucketRows(tbl, 0, cols, vals)); got != 8 {
		b.Fatalf("bucket size = %d, want 8", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = data.Str("hub")
		vals[1] = data.Int(int64(i % keys))
		live := 0
		for n := tbl.bucket(0, cols, data.HashValues(vals)); n != nil; n = n.next {
			if !n.en.Dead && !n.en.expired(0) {
				live++
			}
		}
		if live != 8 {
			b.Fatal("probe miss")
		}
	}
}
