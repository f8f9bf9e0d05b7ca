package core

import (
	"errors"
	"testing"
	"time"

	"preserial/internal/sem"
)

// multiObjectManager returns a manager with three objects X, Y, Z.
func multiObjectManager(t *testing.T, opt ...Option) (*Manager, *MemStore, interface{ Advance(time.Duration) time.Time }) {
	t.Helper()
	m, store, clk := testManager(t, opt...)
	for _, id := range []ObjectID{"Y", "Z"} {
		ref := StoreRef{Table: "T", Key: string(id), Column: "v"}
		store.Seed(ref, sem.Int(50))
		if err := m.RegisterAtomicObject(id, ref); err != nil {
			t.Fatal(err)
		}
	}
	return m, store, clk
}

// TestMultiObjectSleepPartialConflictAborts: a sleeper holding several
// objects aborts if ANY of them saw incompatible activity (the ∀X quantifier
// of Algorithm 9).
func TestMultiObjectSleepPartialConflictAborts(t *testing.T) {
	m, _, _ := multiObjectManager(t)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)
	mustInvoke(t, m, "A", "Y", addOp)
	mustInvoke(t, m, "A", "Z", addOp)
	if err := m.Apply("A", "X", sem.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sleep("A"); err != nil {
		t.Fatal(err)
	}

	// Compatible commit on X, incompatible admission on Z only.
	mustBegin(t, m, "B")
	mustInvoke(t, m, "B", "X", addOp)
	if err := m.Apply("B", "X", sem.Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit("B"); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "C")
	if !mustInvoke(t, m, "C", "Z", assignOp) {
		t.Fatal("assign on Z must be admitted past the sleeper")
	}

	resumed, err := m.Awake("A")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("a single conflicting object must abort the whole sleeper")
	}
	// A is gone from every object, including the clean ones.
	info, _ := m.ObjectInfo("Y")
	if len(info.Pending) != 0 || len(info.Sleeping) != 0 {
		t.Errorf("Y still holds traces of A: %+v", info)
	}
}

// TestMultiObjectSleepAllCompatibleResumes: compatible commits on every
// held object do not hurt the sleeper, and reconciliation folds them all.
func TestMultiObjectSleepAllCompatibleResumes(t *testing.T) {
	m, _, _ := multiObjectManager(t)
	mustBegin(t, m, "A")
	for _, obj := range []ObjectID{"X", "Y"} {
		mustInvoke(t, m, "A", obj, addOp)
		if err := m.Apply("A", obj, sem.Int(-1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Sleep("A"); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "B")
	mustInvoke(t, m, "B", "X", addOp)
	_ = m.Apply("B", "X", sem.Int(-3))
	mustInvoke(t, m, "B", "Y", addOp)
	_ = m.Apply("B", "Y", sem.Int(-4))
	if err := m.RequestCommit("B"); err != nil {
		t.Fatal(err)
	}
	resumed, err := m.Awake("A")
	if err != nil || !resumed {
		t.Fatal(resumed, err)
	}
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	x, _ := m.Permanent("X", "")
	y, _ := m.Permanent("Y", "")
	if x.Int64() != 96 { // 100−3−1
		t.Errorf("X = %s", x)
	}
	if y.Int64() != 45 { // 50−4−1
		t.Errorf("Y = %s", y)
	}
}

// TestAwakeChecksOnlyRelevantCommits: an incompatible commit on an object
// the sleeper does NOT hold is irrelevant.
func TestAwakeChecksOnlyRelevantCommits(t *testing.T) {
	m, _, _ := multiObjectManager(t)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.Sleep("A"); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "B")
	mustInvoke(t, m, "B", "Y", assignOp) // different object
	_ = m.Apply("B", "Y", sem.Int(1))
	if err := m.RequestCommit("B"); err != nil {
		t.Fatal(err)
	}
	resumed, err := m.Awake("A")
	if err != nil || !resumed {
		t.Fatalf("irrelevant commit aborted the sleeper: %v %v", resumed, err)
	}
}

// TestWaiterCapDoesNotBlockFirstHolder: the starvation cap only defers
// compatible *joins*; the first holder is always admitted.
func TestWaiterCapDoesNotBlockFirstHolder(t *testing.T) {
	m, _, _ := testManager(t, WithIncompatibleWaiterCap(1))
	mustBegin(t, m, "W1")
	mustBegin(t, m, "W2")
	mustBegin(t, m, "A")
	mustInvoke(t, m, "W1", "X", assignOp)
	if granted, _ := m.Invoke("W2", "X", assignOp); granted {
		t.Fatal("second assign must queue")
	}
	// X now has 1 incompatible waiter; A's add must still be DEFERRED
	// because a holder exists… but once everything clears, a fresh first
	// holder passes regardless of the (then-empty) queue.
	if err := m.Abort("W1"); err != nil {
		t.Fatal(err)
	}
	// W2 got the object. A's add conflicts with the assign anyway; abort W2.
	if err := m.Abort("W2"); err != nil {
		t.Fatal(err)
	}
	if !mustInvoke(t, m, "A", "X", addOp) {
		t.Error("first holder must not be blocked by the waiter cap")
	}
}

// TestDispatchFIFOWithoutPriorities: waiters are admitted strictly in
// arrival order when priorities are off.
func TestDispatchFIFOWithoutPriorities(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "H")
	mustInvoke(t, m, "H", "X", assignOp)
	var order []TxID
	note := func(ev Event) {
		if ev.Type == EvGranted {
			order = append(order, ev.Tx)
		}
	}
	for _, id := range []TxID{"w1", "w2", "w3"} {
		mustBegin(t, m, id, WithNotify(note))
		if granted, _ := m.Invoke(id, "X", addOp); granted {
			t.Fatalf("%s must queue", id)
		}
	}
	if err := m.RequestCommit("H"); err != nil {
		t.Fatal(err)
	}
	// All three adds are mutually compatible: admitted together, in order.
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("grant order = %v", order)
	}
}

// TestReadValueAfterLocalCommitFails: once committing, the virtual copy is
// gone (Algorithm 3 clears A_temp).
func TestReadValueAfterCommitFails(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadValue("A", "X"); !errors.Is(err, ErrNotInvoked) {
		t.Errorf("read after commit = %v", err)
	}
}

// TestSleepNotifiedWaiterRace: a waiter that sleeps is skipped at dispatch
// and can only re-enter via Awake.
func TestSleepingWaiterSkippedAtDispatch(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "H")
	mustInvoke(t, m, "H", "X", assignOp)
	granted := false
	mustBegin(t, m, "W", WithNotify(func(ev Event) {
		if ev.Type == EvGranted {
			granted = true
		}
	}))
	if g, _ := m.Invoke("W", "X", addOp); g {
		t.Fatal("W must queue")
	}
	if err := m.Sleep("W"); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit("H"); err != nil {
		t.Fatal(err)
	}
	if granted {
		t.Fatal("sleeping waiter must not be granted at dispatch")
	}
	mustState(t, m, "W", StateSleeping)
	// Awake finds H committed — incompatible with the queued add → abort.
	resumed, err := m.Awake("W")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("W slept across an incompatible commit")
	}
}

// TestWaiterCapBatchAdmission is the regression test for the starvation
// experiment's policy bug: compatible waiters queued BEFORE an incompatible
// arrival must all be admitted together at dispatch — the cap only defers a
// candidate to incompatible transactions ahead of it in the queue.
func TestWaiterCapBatchAdmission(t *testing.T) {
	m, _, _ := testManager(t, WithIncompatibleWaiterCap(1))
	// An assign holds the object; three adds queue behind it; then a second
	// assign queues behind the adds.
	mustBegin(t, m, "holder")
	mustInvoke(t, m, "holder", "X", assignOp)
	var granted []TxID
	note := func(ev Event) {
		if ev.Type == EvGranted {
			granted = append(granted, ev.Tx)
		}
	}
	for _, id := range []TxID{"add1", "add2", "add3"} {
		mustBegin(t, m, id, WithNotify(note))
		if g, _ := m.Invoke(id, "X", addOp); g {
			t.Fatalf("%s must queue behind the assign", id)
		}
	}
	mustBegin(t, m, "assign2", WithNotify(note))
	if g, _ := m.Invoke("assign2", "X", assignOp); g {
		t.Fatal("assign2 must queue")
	}

	// The holder commits: ALL three adds are admitted in one batch (they
	// are ahead of assign2), and assign2 stays queued behind them.
	if err := m.RequestCommit("holder"); err != nil {
		t.Fatal(err)
	}
	if len(granted) != 3 {
		t.Fatalf("batch admission broken: granted = %v, want the 3 adds", granted)
	}
	mustState(t, m, "assign2", StateWaiting)

	// A fresh add arriving now IS capped (assign2 is ahead of it).
	mustBegin(t, m, "late")
	if g, _ := m.Invoke("late", "X", addOp); g {
		t.Fatal("late add must defer to the queued assign")
	}

	// Drain the batch; assign2 runs next, then the late add.
	for _, id := range []TxID{"add1", "add2", "add3"} {
		if err := m.RequestCommit(id); err != nil {
			t.Fatal(err)
		}
	}
	mustState(t, m, "assign2", StateActive)
	mustState(t, m, "late", StateWaiting)
	if err := m.RequestCommit("assign2"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "late", StateActive)
}
