package ldbs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"preserial/internal/sem"
)

func benchDB(b *testing.B, wal io.Writer) *DB {
	b.Helper()
	db := Open(Options{WAL: wal})
	if err := db.CreateTable(testSchema()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	tx := db.Begin()
	for i := 0; i < 100; i++ {
		row := Row{"FreeTickets": sem.Int(1000), "Price": sem.Float(99), "Carrier": sem.Str("AZ")}
		if err := tx.Insert(ctx, "Flight", fmt.Sprintf("F%03d", i), row); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkCommitReadModifyWrite measures the classic transactional cycle:
// read a row, write a column, commit (no WAL).
func BenchmarkCommitReadModifyWrite(b *testing.B) {
	db := benchDB(b, nil)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		v, err := tx.Get(ctx, "Flight", "F000", "FreeTickets")
		if err != nil {
			b.Fatal(err)
		}
		next, _ := v.Add(sem.Int(-1))
		if next.Int64() < 1 {
			next = sem.Int(1000)
		}
		if err := tx.Set(ctx, "Flight", "F000", "FreeTickets", next); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitWithWAL adds write-ahead logging to the same cycle.
func BenchmarkCommitWithWAL(b *testing.B) {
	var buf bytes.Buffer
	db := benchDB(b, &buf)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := tx.Set(ctx, "Flight", "F000", "Price", sem.Float(float64(i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentCommitsDisjointRows measures parallel commit throughput
// on disjoint rows.
func BenchmarkConcurrentCommitsDisjointRows(b *testing.B) {
	db := benchDB(b, nil)
	ctx := context.Background()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("F%03d", next.Add(1)%100)
		for pb.Next() {
			tx := db.Begin()
			if err := tx.Set(ctx, "Flight", key, "Price", sem.Float(1)); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLockAcquireRelease measures the lock manager's uncontended path.
func BenchmarkLockAcquireRelease(b *testing.B) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	for i := 0; i < b.N; i++ {
		if err := lm.Acquire(ctx, uint64(i), res, LockX); err != nil {
			b.Fatal(err)
		}
		lm.ReleaseAll(uint64(i))
	}
}

// BenchmarkWALAppend measures log encoding throughput.
func BenchmarkWALAppend(b *testing.B) {
	l := newWAL(io.Discard)
	rec := walRecord{Type: recSetCol, TxID: 1, Table: "Flight", Key: "F000",
		Column: "FreeTickets", Value: sem.Int(42)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(rec.encode()) + 8))
}

// BenchmarkSelectScan measures a predicate scan over 100 rows.
func BenchmarkSelectScan(b *testing.B) {
	db := benchDB(b, nil)
	ctx := context.Background()
	q := Query{Table: "Flight", Where: []Pred{{Column: "FreeTickets", Op: CmpGT, Value: sem.Int(0)}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		rows, err := tx.Select(ctx, q)
		if err != nil || len(rows) != 100 {
			b.Fatalf("%d rows, %v", len(rows), err)
		}
		tx.Rollback()
	}
}

// BenchmarkRecovery measures replaying a 1000-commit log.
func BenchmarkRecovery(b *testing.B) {
	var buf bytes.Buffer
	db := benchDB(b, &buf)
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		tx := db.Begin()
		if err := tx.Set(ctx, "Flight", fmt.Sprintf("F%03d", i%100), "Price", sem.Float(float64(i))); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			b.Fatal(err)
		}
	}
	log := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := Open(Options{})
		if err := fresh.CreateTable(testSchema()); err != nil {
			b.Fatal(err)
		}
		if _, err := fresh.ReplayWAL(bytes.NewReader(log)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(log)))
}

// BenchmarkSelectIndexedVsScan compares the index path against the full
// scan on a 10k-row table with a selective equality predicate.
func BenchmarkSelectIndexedVsScan(b *testing.B) {
	build := func(b *testing.B) *DB {
		db := Open(Options{})
		if err := db.CreateTable(testSchema()); err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		tx := db.Begin()
		for i := 0; i < 10000; i++ {
			row := Row{
				"FreeTickets": sem.Int(int64(i)),
				"Carrier":     sem.Str(fmt.Sprintf("C%03d", i%500)),
			}
			if err := tx.Insert(ctx, "Flight", fmt.Sprintf("F%05d", i), row); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		return db
	}
	q := Query{Table: "Flight", Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("C007")}}}
	ctx := context.Background()

	b.Run("scan", func(b *testing.B) {
		db := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := db.Begin()
			rows, err := tx.Select(ctx, q)
			if err != nil || len(rows) != 20 {
				b.Fatalf("%d rows, %v", len(rows), err)
			}
			tx.Rollback()
		}
	})
	b.Run("indexed", func(b *testing.B) {
		db := build(b)
		if err := db.CreateIndex("Flight", "Carrier"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := db.Begin()
			rows, err := tx.SelectIndexed(ctx, q)
			if err != nil || len(rows) != 20 {
				b.Fatalf("%d rows, %v", len(rows), err)
			}
			tx.Rollback()
		}
	})
}

// BenchmarkTxBulkInsert measures one transaction of n inserts on the mem
// store, then its commit, in ns per insert: flat in n when a write's
// lookup of the transaction's own earlier writes costs O(1).
func BenchmarkTxBulkInsert(b *testing.B) {
	ctx := context.Background()
	row := Row{"FreeTickets": sem.Int(1000), "Price": sem.Float(99), "Carrier": sem.Str("AZ")}
	for _, n := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("F%06d", i)
		}
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := Open(Options{})
				if err := db.CreateTable(testSchema()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				tx := db.Begin()
				for _, k := range keys {
					if err := tx.Insert(ctx, "Flight", k, row); err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/insert")
		})
	}
}

// BenchmarkReplHubNext measures a sender's read of the newest segment
// with 1k, 10k and 40k retained 200-byte segments (40k fill the default
// 8 MiB window): the cost of finding the cursor in the window.
func BenchmarkReplHubNext(b *testing.B) {
	data := make([]byte, 200)
	for _, n := range []int{1 << 10, 10 << 10, 40 << 10} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			h := newReplHub(n*len(data), false, time.Second)
			for lsn := uint64(1); lsn <= uint64(n); lsn++ {
				h.publish(data, lsn, lsn)
			}
			c := &replCursor{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, _, err := h.next(c, uint64(n-1)); err != nil || len(out) != len(data) {
					b.Fatalf("%d bytes, %v", len(out), err)
				}
			}
		})
	}
}
