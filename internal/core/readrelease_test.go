package core

import (
	"testing"
	"time"

	"preserial/internal/sem"
)

// gateStore blocks ApplySST until released, exposing the window where a
// commit's SST runs outside the monitor.
type gateStore struct {
	started chan struct{}
	release chan struct{}
}

func newGateStore() *gateStore {
	return &gateStore{started: make(chan struct{}, 8), release: make(chan struct{})}
}

func (s *gateStore) Load(ref StoreRef) (sem.Value, error) { return sem.Int(100), nil }

func (s *gateStore) ApplySST(w []SSTWrite) error {
	s.started <- struct{}{}
	<-s.release
	return nil
}

func waitState(t *testing.T, m *Manager, tx TxID, want State) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := m.TxState(tx); err == nil && st == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := m.TxState(tx)
	t.Fatalf("tx %s = %s, want %s", tx, st, want)
}

// TestReadSlotReleasedAtLocalCommit is the regression test for read-class
// invocations holding their object pending slots until global commit: a
// transaction with a read on X and an update on Y requests commit, its SST
// on Y stalls, and a conflicting writer invokes on X. Pre-fix the writer
// blocked for the whole SST (the read sat in X_committing); post-fix the
// read-class local commit frees the slot and the writer is granted
// immediately. StrictRWConflict makes the read actually conflict with the
// writer — under the default Table I relation reads are compatible with
// everything and the slot cost is invisible.
func TestReadSlotReleasedAtLocalCommit(t *testing.T) {
	store := newGateStore()
	m := NewManager(store, WithConflictFunc(StrictRWConflict))
	if err := m.RegisterAtomicObject("X", StoreRef{Table: "T", Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterAtomicObject("Y", StoreRef{Table: "T", Key: "y"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin("R"); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("R", "X", sem.Op{Class: sem.Read}); err != nil || !granted {
		t.Fatalf("read invoke: granted=%v err=%v", granted, err)
	}
	if granted, err := m.Invoke("R", "Y", sem.Op{Class: sem.AddSub}); err != nil || !granted {
		t.Fatalf("update invoke: granted=%v err=%v", granted, err)
	}
	if err := m.Apply("R", "Y", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	// Without an executor the SST runs on the goroutine leaving the monitor.
	go m.RequestCommit("R")
	<-store.started // R's SST on Y is in flight; R is Committing

	if err := m.Begin("W"); err != nil {
		t.Fatal(err)
	}
	granted, err := m.Invoke("W", "X", sem.Op{Class: sem.AddSub})
	if err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("conflicting writer blocked on X by a read whose transaction is already in its SST")
	}

	close(store.release)
	waitState(t, m, "R", StateCommitted)

	defer m.mon.enter(m)()
	if len(m.objs.get("X").holders) != 1 { // W's pending add/sub only
		t.Fatal("released read not cleared after publish")
	}
}

// TestReleasedReadVisibleToAwakeningSleeper covers the conflict-visibility
// half of the early release: a sleeping writer must still abort on awake
// when a read-class transaction local-committed (slot already freed) but
// has not yet published — otherwise the pre-serialization order would be
// silently violated during the SST window.
func TestReleasedReadVisibleToAwakeningSleeper(t *testing.T) {
	store := newGateStore()
	m := NewManager(store, WithConflictFunc(StrictRWConflict))
	if err := m.RegisterAtomicObject("X", StoreRef{Table: "T", Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterAtomicObject("Y", StoreRef{Table: "T", Key: "y"}); err != nil {
		t.Fatal(err)
	}
	// Writer W holds X and sleeps.
	if err := m.Begin("W"); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("W", "X", sem.Op{Class: sem.AddSub}); err != nil || !granted {
		t.Fatalf("invoke: granted=%v err=%v", granted, err)
	}
	if err := m.Sleep("W"); err != nil {
		t.Fatal(err)
	}
	// Reader R is admitted on X while W sleeps (sleeping holders do not
	// block), plus an update on Y so its commit stalls in the SST.
	if err := m.Begin("R"); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("R", "X", sem.Op{Class: sem.Read}); err != nil || !granted {
		t.Fatalf("read invoke: granted=%v err=%v", granted, err)
	}
	if granted, err := m.Invoke("R", "Y", sem.Op{Class: sem.AddSub}); err != nil || !granted {
		t.Fatalf("update invoke: granted=%v err=%v", granted, err)
	}
	go m.RequestCommit("R")
	<-store.started // read slot released, commit not yet published

	resumed, err := m.Awake("W")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("sleeping writer resumed despite an incompatible read committing in the SST window")
	}
	close(store.release)
	waitState(t, m, "R", StateCommitted)
}
