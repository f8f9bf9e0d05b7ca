package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"preserial/internal/sem"
)

// commitAdd runs one add-and-commit transaction synchronously (no executor:
// the SST runs on the goroutine leaving the monitor, so RequestCommit
// returns with the transaction committed).
func commitAdd(t *testing.T, m *Manager, tx TxID, obj ObjectID, delta int64) {
	t.Helper()
	if err := m.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke(tx, obj, sem.Op{Class: sem.AddSub}); err != nil || !granted {
		t.Fatalf("invoke %s on %s: granted=%v err=%v", tx, obj, granted, err)
	}
	if err := m.Apply(tx, obj, sem.Int(delta)); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit(tx); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, tx, StateCommitted)
}

func seededManager(t *testing.T, opts ...Option) (*Manager, *MemStore) {
	t.Helper()
	store := NewMemStore()
	store.Seed(StoreRef{Table: "T", Key: "x"}, sem.Int(100))
	store.Seed(StoreRef{Table: "T", Key: "y"}, sem.Int(50))
	m := NewManager(store, opts...)
	if err := m.RegisterAtomicObject("X", StoreRef{Table: "T", Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterAtomicObject("Y", StoreRef{Table: "T", Key: "y"}); err != nil {
		t.Fatal(err)
	}
	return m, store
}

// TestSnapshotReadMonitorFree is the core property of the multiversion read
// path: once chains are warm, snapshot reads enter the monitor zero times.
func TestSnapshotReadMonitorFree(t *testing.T) {
	m, _ := seededManager(t)
	commitAdd(t, m, "A", "X", -1)
	commitAdd(t, m, "B", "Y", -2)

	s := m.BeginSnapshot()
	defer s.Close()
	if v, err := s.Read("X", ""); err != nil || !v.Equal(sem.Int(99)) {
		t.Fatalf("snapshot read X = %v, %v; want 99", v, err)
	}

	before := m.MonitorEntries()
	for i := 0; i < 1000; i++ {
		if v, err := s.Read("X", ""); err != nil || !v.Equal(sem.Int(99)) {
			t.Fatalf("snapshot read X = %v, %v; want 99", v, err)
		}
		if v, err := s.Read("Y", ""); err != nil || !v.Equal(sem.Int(48)) {
			t.Fatalf("snapshot read Y = %v, %v; want 48", v, err)
		}
	}
	if got := m.MonitorEntries(); got != before {
		t.Fatalf("snapshot reads entered the monitor %d times", got-before)
	}
}

// TestSnapshotPinIsolation: a snapshot pinned before a commit keeps seeing
// the pre-commit value after the commit publishes; a fresh snapshot sees
// the new one.
func TestSnapshotPinIsolation(t *testing.T) {
	m, _ := seededManager(t)
	commitAdd(t, m, "A", "X", -1) // X: 99

	old := m.BeginSnapshot()
	defer old.Close()
	commitAdd(t, m, "B", "X", -9) // X: 90

	if v, err := old.Read("X", ""); err != nil || !v.Equal(sem.Int(99)) {
		t.Fatalf("pinned snapshot read X = %v, %v; want 99", v, err)
	}
	fresh := m.BeginSnapshot()
	defer fresh.Close()
	if v, err := fresh.Read("X", ""); err != nil || !v.Equal(sem.Int(90)) {
		t.Fatalf("fresh snapshot read X = %v, %v; want 90", v, err)
	}
	if old.Seq() >= fresh.Seq() {
		t.Fatalf("pin order: old %d, fresh %d", old.Seq(), fresh.Seq())
	}
}

// TestSnapshotReadDuringSST: while a commit's SST is in flight the store
// already holds the new value but the commit has not published; a snapshot
// read must still return the committed (old) value, via the monitor
// fallback, never the in-flight one.
func TestSnapshotReadDuringSST(t *testing.T) {
	store := newGateStore()
	m := NewManager(store)
	if err := m.RegisterAtomicObject("X", StoreRef{Table: "T", Key: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin("A"); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("A", "X", sem.Op{Class: sem.AddSub}); err != nil || !granted {
		t.Fatalf("invoke: granted=%v err=%v", granted, err)
	}
	if err := m.Apply("A", "X", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	go m.RequestCommit("A")
	<-store.started // SST in flight: sstActive > 0, nothing published

	if v, err := m.SnapshotRead("X", ""); err != nil || !v.Equal(sem.Int(100)) {
		t.Fatalf("snapshot read during SST = %v, %v; want the pre-commit 100", v, err)
	}
	close(store.release)
	waitState(t, m, "A", StateCommitted)
	if v, err := m.SnapshotRead("X", ""); err != nil || !v.Equal(sem.Int(99)) {
		t.Fatalf("snapshot read after publish = %v, %v; want 99", v, err)
	}
}

// TestVersionGCHorizon: with no snapshot or sleeper pinning history, chains
// shrink to one node per publish; an open snapshot retains its version
// until closed.
func TestVersionGCHorizon(t *testing.T) {
	m, _ := seededManager(t)
	commitAdd(t, m, "A", "X", -1) // 99

	s := m.BeginSnapshot() // pins seq of commit A
	commitAdd(t, m, "B", "X", -1)
	commitAdd(t, m, "C", "X", -1) // 97; GC ran at each publish with s open

	if v, err := s.Read("X", ""); err != nil || !v.Equal(sem.Int(99)) {
		t.Fatalf("pinned read = %v, %v; want 99", v, err)
	}
	s.Close()
	commitAdd(t, m, "D", "Y", -1) // any publish GCs with no pins left

	ch := &m.objs.get("X").member("").ch
	n := 0
	for node := ch.head.Load(); node != nil; node = node.prev.Load() {
		n++
	}
	if n != 1 {
		t.Fatalf("chain retains %d versions after GC, want 1", n)
	}
	if v, err := m.SnapshotRead("X", ""); err != nil || !v.Equal(sem.Int(97)) {
		t.Fatalf("post-GC read = %v, %v; want 97", v, err)
	}
}

// TestSnapshotConcurrentWithWriters hammers snapshot reads against a
// writer stream; every read must observe a value consistent with some
// commit prefix (100, 99, ..., and the two members must never violate the
// pinned prefix: X+Y decreases monotonically with the sequence).
func TestSnapshotConcurrentWithWriters(t *testing.T) {
	m, _ := seededManager(t)
	const writers, rounds = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := m.BeginSnapshot()
			vx, err := s.Read("X", "")
			if err != nil {
				t.Error(err)
				s.Close()
				return
			}
			vy, err := s.Read("Y", "")
			s.Close()
			if err != nil {
				t.Error(err)
				return
			}
			x, y := vx.Int64(), vy.Int64()
			if x < 100-int64(writers*rounds) || x > 100 || y < 50-int64(writers*rounds) || y > 50 {
				t.Errorf("snapshot saw impossible values x=%d y=%d", x, y)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := TxID(fmt.Sprintf("w%d-%d", w, i))
				obj := ObjectID("X")
				if i%2 == 1 {
					obj = "Y"
				}
				if err := m.Begin(tx); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Invoke(tx, obj, sem.Op{Class: sem.AddSub}); err != nil {
					t.Error(err)
					return
				}
				if err := m.Apply(tx, obj, sem.Int(-1)); err != nil {
					t.Error(err)
					return
				}
				if err := m.RequestCommit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Writers finish first; then stop the reader.
	waitAllCommitted(t, m, writers*rounds)
	close(stop)
	<-wgDone
}

// waitAllCommitted polls until n transactions have committed.
func waitAllCommitted(t *testing.T, m *Manager, n int) {
	t.Helper()
	for i := 0; i < 4000; i++ {
		if m.Stats().Committed >= uint64(n) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("only %d of %d commits landed", m.Stats().Committed, n)
}

// TestSnapshotUnknownObject: reads of unregistered objects fail cleanly.
func TestSnapshotUnknownObject(t *testing.T) {
	m, _ := seededManager(t)
	if _, err := m.SnapshotRead("Z", ""); err == nil {
		t.Fatal("snapshot read of unknown object succeeded")
	}
}
