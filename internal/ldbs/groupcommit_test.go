package ldbs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"preserial/internal/sem"
)

// lockedBuffer is a WAL destination whose Sync can be armed to fail, with
// optional per-sync latency to force batching under concurrency.
type lockedBuffer struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	syncs    atomic.Int64
	failFrom int64 // fail every Sync once syncs reaches this (0: never)
	delay    time.Duration
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Sync() error {
	n := b.syncs.Add(1)
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	if b.failFrom > 0 && n >= b.failFrom {
		return errors.New("injected sync failure")
	}
	return nil
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, b.buf.Len())
	copy(out, b.buf.Bytes())
	return out
}

// TestGroupCommitConcurrentCommits: many goroutines commit concurrently
// through the group-commit coordinator. Every successful commit must be in
// the replayed WAL, every transaction's frame must be contiguous
// (recBegin…recCommit with no foreign records in between), and the
// concurrent burst must share fsyncs.
func TestGroupCommitConcurrentCommits(t *testing.T) {
	buf := &lockedBuffer{delay: 200 * time.Microsecond}
	db := Open(Options{WAL: buf})
	if err := db.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const rows = 16
	seed := db.Begin()
	for i := 0; i < rows; i++ {
		if err := seed.Insert(ctx, "Flight", fmt.Sprintf("F%02d", i), Row{"FreeTickets": sem.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perW = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perW; k++ {
				tx := db.Begin()
				key := fmt.Sprintf("F%02d", (w*perW+k)%rows)
				if err := tx.Set(ctx, "Flight", key, "FreeTickets", sem.Int(int64(w*perW+k))); err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if err := tx.Commit(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if s := buf.syncs.Load(); s >= workers*perW {
		t.Errorf("syncs = %d for %d commits: no batching", s, workers*perW)
	}

	// Per-transaction contiguity: between a transaction's recBegin and its
	// recCommit no other transaction's records may appear.
	records, err := readWAL(bytes.NewReader(buf.bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var open uint64 // tx whose frame is currently open (0: none)
	for i, rec := range records {
		switch rec.Type {
		case recBegin:
			if open != 0 {
				t.Fatalf("record %d: tx %d begins inside tx %d's frame", i, rec.TxID, open)
			}
			open = rec.TxID
		case recCommit, recAbort:
			if rec.TxID != open {
				t.Fatalf("record %d: tx %d ends inside tx %d's frame", i, rec.TxID, open)
			}
			open = 0
		default:
			if rec.TxID != open {
				t.Fatalf("record %d: tx %d writes inside tx %d's frame", i, rec.TxID, open)
			}
		}
	}

	// No lost commits: the replayed state equals the live state.
	fresh := Open(Options{})
	if err := fresh.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ReplayWAL(bytes.NewReader(buf.bytes())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		key := fmt.Sprintf("F%02d", i)
		live, _ := db.ReadCommitted("Flight", key, "FreeTickets")
		rec, _ := fresh.ReadCommitted("Flight", key, "FreeTickets")
		if !live.Equal(rec) {
			t.Fatalf("%s: live=%s recovered=%s", key, live, rec)
		}
	}
}

// TestWALPoisonedAfterSyncFailure: the commit that hits the sync failure
// reports it; every later commit fails fast with ErrWALPoisoned, without
// another sync attempt and without touching the store.
func TestWALPoisonedAfterSyncFailure(t *testing.T) {
	t.Run("group", func(t *testing.T) {
		buf := &lockedBuffer{failFrom: 2} // first sync (baseline commit) succeeds
		db := Open(Options{WAL: buf})
		if err := db.CreateTable(testSchema()); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		tx := db.Begin()
		if err := tx.Insert(ctx, "Flight", "AZ0", Row{"FreeTickets": sem.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}

		tx2 := db.Begin()
		if err := tx2.Set(ctx, "Flight", "AZ0", "FreeTickets", sem.Int(2)); err != nil {
			t.Fatal(err)
		}
		if err := tx2.Commit(ctx); err == nil {
			t.Fatal("commit survived a sync failure")
		}
		// The failed commit must not have been applied to the store.
		if v, _ := db.ReadCommitted("Flight", "AZ0", "FreeTickets"); v.Int64() != 1 {
			t.Fatalf("failed commit applied: %s", v)
		}

		syncsSoFar := buf.syncs.Load()
		tx3 := db.Begin()
		if err := tx3.Set(ctx, "Flight", "AZ0", "FreeTickets", sem.Int(3)); err != nil {
			t.Fatal(err)
		}
		err := tx3.Commit(ctx)
		if !errors.Is(err, ErrWALPoisoned) {
			t.Fatalf("commit after poisoning = %v, want ErrWALPoisoned", err)
		}
		if buf.syncs.Load() != syncsSoFar {
			t.Fatal("poisoned WAL attempted another sync")
		}
		if v, _ := db.ReadCommitted("Flight", "AZ0", "FreeTickets"); v.Int64() != 1 {
			t.Fatalf("post-poison commit applied: %s", v)
		}
		// tx3's frame must not have reached the log at all: replaying the
		// buffer never yields the value 3.
		fresh := Open(Options{})
		if err := fresh.CreateTable(testSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ReplayWAL(bytes.NewReader(buf.bytes())); err != nil {
			t.Fatal(err)
		}
		if v, _ := fresh.ReadCommitted("Flight", "AZ0", "FreeTickets"); v.Int64() == 3 {
			t.Fatal("rejected commit reached the WAL")
		}
	})
}

// TestTornFlushRecoverySemantics pins the in-doubt window this PR closes
// around: when a sync fails after the buffer was (partially) flushed, the
// failed transaction MAY still be redone by recovery — its Commit() error
// means "in doubt", not "not committed". What the poisoned WAL guarantees
// is (a) atomicity per transaction at every truncation point and (b) that
// nothing commits after the in-doubt transaction, so it is always the last
// one recovery can redo.
func TestTornFlushRecoverySemantics(t *testing.T) {
	buf := &lockedBuffer{failFrom: 2}
	db := Open(Options{WAL: buf})
	if err := db.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := db.Begin()
	if err := tx.Insert(ctx, "Flight", "AZ0",
		Row{"FreeTickets": sem.Int(1), "Price": sem.Float(1.5)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// The in-doubt transaction: two paired writes, sync fails.
	tx2 := db.Begin()
	if err := tx2.Set(ctx, "Flight", "AZ0", "FreeTickets", sem.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Set(ctx, "Flight", "AZ0", "Price", sem.Float(3.0)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(ctx); err == nil {
		t.Fatal("commit survived sync failure")
	}
	// A third commit must be refused (poisoned), so nothing can follow the
	// in-doubt transaction in the log.
	tx3 := db.Begin()
	if err := tx3.Upsert(ctx, "Flight", "AZ1", Row{"FreeTickets": sem.Int(9)}); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(ctx); !errors.Is(err, ErrWALPoisoned) {
		t.Fatalf("commit = %v, want ErrWALPoisoned", err)
	}

	// Crash anywhere in the flushed tail: every prefix recovers to exactly
	// "after tx1" or "after tx2" — never a torn mix, never tx3.
	log := buf.bytes()
	sawRedone := false
	for cut := 0; cut <= len(log); cut++ {
		fresh := Open(Options{})
		if err := fresh.CreateTable(testSchema()); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ReplayWAL(bytes.NewReader(log[:cut])); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n, _ := fresh.NumRows("Flight"); n == 0 {
			continue // before tx1's frame was flushed
		}
		if _, err := fresh.ReadCommitted("Flight", "AZ1", "FreeTickets"); err == nil {
			t.Fatalf("cut %d: post-poison transaction recovered", cut)
		}
		tickets, _ := fresh.ReadCommitted("Flight", "AZ0", "FreeTickets")
		price, _ := fresh.ReadCommitted("Flight", "AZ0", "Price")
		switch tickets.Int64() {
		case 1:
			if price.Float64() != 1.5 {
				t.Fatalf("cut %d: torn state tickets=1 price=%s", cut, price)
			}
		case 2:
			sawRedone = true
			if price.Float64() != 3.0 {
				t.Fatalf("cut %d: torn state tickets=2 price=%s", cut, price)
			}
		default:
			t.Fatalf("cut %d: impossible tickets=%s", cut, tickets)
		}
	}
	// The full buffer holds tx2's complete frame (the flush succeeded, only
	// the sync failed): recovery redoes the commit whose Commit() errored —
	// the in-doubt semantics this test pins.
	if !sawRedone {
		t.Fatal("in-doubt transaction never recovered from the full log; test premise broken")
	}
}
