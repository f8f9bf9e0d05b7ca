package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/faultnet"
	"preserial/internal/obs"
	"preserial/internal/sem"
)

// parkFirstStore parks its first ApplySST until released. It is not a
// core.BatchStore, and neither is the faultnet.FlakyStore wrapped around it.
type parkFirstStore struct {
	*core.MemStore
	gate    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (s *parkFirstStore) ApplySST(writes []core.SSTWrite) error {
	s.gate.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.MemStore.ApplySST(writes)
}

// TestExecutorNonBatchStoreCommitsPerTransaction: SSTs drained together
// over a store without ApplySSTBatch are applied one per transaction, each
// with the WithSSTRetries policy, so injected store faults abort nobody.
func TestExecutorNonBatchStoreCommitsPerTransaction(t *testing.T) {
	const n = 6
	inner := &parkFirstStore{MemStore: core.NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	flaky := faultnet.NewFlakyStore(struct{ core.Store }{inner}, 7)
	reg := obs.NewRegistry()
	m := core.NewManager(flaky,
		core.WithObservability(core.NewObservability(reg, 0)),
		core.WithSSTRetries(64, nil),
		core.WithSSTExecutor(1, 16),
		core.WithSSTBackoff(time.Microsecond, 10*time.Microsecond))
	defer m.Close()
	if _, ok := core.Store(flaky).(core.BatchStore); ok {
		t.Fatal("FlakyStore became a BatchStore; this test needs a store that is not")
	}
	for i := 0; i <= n; i++ {
		ref := core.StoreRef{Table: "T", Key: fmt.Sprintf("K%d", i), Column: "v"}
		inner.Seed(ref, sem.Int(100))
		if err := m.RegisterAtomicObject(core.ObjectID(fmt.Sprintf("O%d", i)), ref); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan core.Event, n+1)
	commit := func(i int) {
		tx, obj := core.TxID(fmt.Sprintf("T%d", i)), core.ObjectID(fmt.Sprintf("O%d", i))
		if err := m.Begin(tx, core.WithNotify(func(ev core.Event) {
			if ev.Type == core.EvCommitted || ev.Type == core.EvAborted {
				done <- ev
			}
		})); err != nil {
			t.Fatal(err)
		}
		if granted, err := m.Invoke(tx, obj, sem.Op{Class: sem.AddSub}); err != nil || !granted {
			t.Fatalf("invoke %s: granted=%v err=%v", tx, granted, err)
		}
		if err := m.Apply(tx, obj, sem.Int(-1)); err != nil {
			t.Fatal(err)
		}
		if err := m.RequestCommit(tx); err != nil {
			t.Fatal(err)
		}
	}
	commit(0)
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first SST never reached the store")
	}
	for i := 1; i <= n; i++ {
		commit(i)
	}
	flaky.SetFailProbs(0, 0.5)
	close(inner.release)
	for i := 0; i <= n; i++ {
		select {
		case ev := <-done:
			if ev.Type != core.EvCommitted {
				t.Fatalf("%s: %s, want committed", ev.Tx, ev.Type)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a queued commit never completed")
		}
	}
	if inner.Applied() != n+1 {
		t.Fatalf("store applied %d SSTs, want %d (one per transaction)", inner.Applied(), n+1)
	}
	snap := reg.Snapshot()
	if b, txs := snap[obs.NameSSTBatches], snap[obs.NameSSTBatchTxs]; b != 2 || txs != n+1 {
		t.Fatalf("batches = %d carrying %d txs, want 2 carrying %d", b, txs, n+1)
	}
	if flaky.Injected() == 0 || snap[obs.NameSSTRetries] != flaky.Injected() {
		t.Fatalf("injected %d faults, %d retries; want equal and non-zero", flaky.Injected(), snap[obs.NameSSTRetries])
	}
}
