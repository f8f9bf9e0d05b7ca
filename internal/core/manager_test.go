package core

import (
	"errors"
	"testing"
	"time"

	"preserial/internal/clock"
	"preserial/internal/sem"
)

// testManager returns a manager over a MemStore with one atomic int object
// "X" seeded to 100 (the Table II setting), on a manual clock.
func testManager(t *testing.T, opt ...Option) (*Manager, *MemStore, *clock.Manual) {
	t.Helper()
	store := NewMemStore()
	ref := StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(100))
	clk := clock.NewManual()
	opts := append([]Option{WithClock(clk), WithHistory()}, opt...)
	m := NewManager(store, opts...)
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		t.Fatal(err)
	}
	return m, store, clk
}

var (
	addOp    = sem.Op{Class: sem.AddSub}
	mulOp    = sem.Op{Class: sem.MulDiv}
	assignOp = sem.Op{Class: sem.Assign}
	readOp   = sem.Op{Class: sem.Read}
)

func mustBegin(t *testing.T, m *Manager, id TxID, opt ...TxOption) {
	t.Helper()
	if err := m.Begin(id, opt...); err != nil {
		t.Fatal(err)
	}
}

func mustInvoke(t *testing.T, m *Manager, id TxID, obj ObjectID, op sem.Op) bool {
	t.Helper()
	granted, err := m.Invoke(id, obj, op)
	if err != nil {
		t.Fatalf("Invoke(%s, %s): %v", id, obj, err)
	}
	return granted
}

func mustState(t *testing.T, m *Manager, id TxID, want State) {
	t.Helper()
	got, err := m.TxState(id)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("state of %s = %s, want %s", id, got, want)
	}
}

func TestBeginDuplicate(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	if err := m.Begin("A"); !errors.Is(err, ErrTxExists) {
		t.Errorf("duplicate Begin = %v", err)
	}
	mustState(t, m, "A", StateActive)
}

func TestRegisterDuplicateObject(t *testing.T) {
	m, _, _ := testManager(t)
	err := m.RegisterAtomicObject("X", StoreRef{})
	if !errors.Is(err, ErrObjectExists) {
		t.Errorf("duplicate RegisterObject = %v", err)
	}
}

func TestUnknownTxAndObject(t *testing.T) {
	m, _, _ := testManager(t)
	if _, err := m.Invoke("ghost", "X", addOp); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("unknown tx = %v", err)
	}
	mustBegin(t, m, "A")
	if _, err := m.Invoke("A", "Y", addOp); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object = %v", err)
	}
	if _, err := m.TxState("ghost"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("TxState ghost = %v", err)
	}
	if _, err := m.TxInfo("ghost"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("TxInfo ghost = %v", err)
	}
	if err := m.Abort("ghost"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("Abort ghost = %v", err)
	}
	if err := m.Sleep("ghost"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("Sleep ghost = %v", err)
	}
	if _, err := m.Awake("ghost"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("Awake ghost = %v", err)
	}
	if err := m.RequestCommit("ghost"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("RequestCommit ghost = %v", err)
	}
	if _, err := m.Permanent("Y", ""); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Permanent unknown = %v", err)
	}
}

func TestCompatibleOpsShareObject(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustBegin(t, m, "R")
	if !mustInvoke(t, m, "A", "X", addOp) {
		t.Fatal("first add must be granted")
	}
	if !mustInvoke(t, m, "B", "X", addOp) {
		t.Fatal("second add must be granted concurrently (Table I)")
	}
	if !mustInvoke(t, m, "R", "X", readOp) {
		t.Fatal("read must be granted alongside adds")
	}
	mustState(t, m, "A", StateActive)
	mustState(t, m, "B", StateActive)
}

func TestIncompatibleOpWaitsAndIsGrantedLater(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	var events []Event
	mustBegin(t, m, "B", WithNotify(func(ev Event) { events = append(events, ev) }))

	if !mustInvoke(t, m, "A", "X", addOp) {
		t.Fatal("A must be granted")
	}
	if mustInvoke(t, m, "B", "X", assignOp) {
		t.Fatal("assign must conflict with a pending add")
	}
	mustState(t, m, "B", StateWaiting)

	// A commits; B must be granted.
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "A", StateCommitted)
	mustState(t, m, "B", StateActive)
	if len(events) != 1 || events[0].Type != EvGranted || events[0].Object != "X" {
		t.Fatalf("B events = %+v, want one EvGranted on X", events)
	}
}

func TestTableIIThroughManager(t *testing.T) {
	m, store, _ := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")

	// A: read X, X=X+1, X=X+3.
	if !mustInvoke(t, m, "A", "X", addOp) {
		t.Fatal("A not granted")
	}
	if v, _ := m.ReadValue("A", "X"); v.Int64() != 100 {
		t.Fatalf("A read %s, want 100", v)
	}
	if err := m.Apply("A", "X", sem.Int(1)); err != nil {
		t.Fatal(err)
	}
	// B: read X (while A pending), X=X+2.
	if !mustInvoke(t, m, "B", "X", addOp) {
		t.Fatal("B not granted")
	}
	if err := m.Apply("A", "X", sem.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply("B", "X", sem.Int(2)); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadValue("A", "X"); v.Int64() != 104 {
		t.Fatalf("A_temp = %s, want 104", v)
	}
	if v, _ := m.ReadValue("B", "X"); v.Int64() != 102 {
		t.Fatalf("B_temp = %s, want 102", v)
	}

	// A commits first (X_new^A = 104), then B (X_new^B = 106).
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Permanent("X", ""); v.Int64() != 104 {
		t.Fatalf("after A: permanent = %s, want 104", v)
	}
	if err := m.RequestCommit("B"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Permanent("X", ""); v.Int64() != 106 {
		t.Fatalf("after B: permanent = %s, want 106", v)
	}
	// And the store agrees.
	got, err := store.Load(StoreRef{Table: "T", Key: "X", Column: "v"})
	if err != nil || got.Int64() != 106 {
		t.Fatalf("store value = %s, %v; want 106", got, err)
	}
	// History recorded both commits with reconciled values.
	h := m.History()
	if len(h) != 2 || h[0].New.Int64() != 104 || h[1].New.Int64() != 106 {
		t.Fatalf("history = %+v", h)
	}
}

func TestCommitterSlotSerializesLocalCommits(t *testing.T) {
	// Force the committer-slot queue: B requests commit while A holds the
	// slot. We use notifications to observe B's asynchronous completion.
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	done := make(map[TxID]bool)
	mustBegin(t, m, "B", WithNotify(func(ev Event) {
		if ev.Type == EvCommitted {
			done[ev.Tx] = true
		}
	}))
	mustInvoke(t, m, "A", "X", addOp)
	mustInvoke(t, m, "B", "X", addOp)
	if err := m.Apply("A", "X", sem.Int(4)); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply("B", "X", sem.Int(2)); err != nil {
		t.Fatal(err)
	}
	// Both commits: with a synchronous MemStore the first RequestCommit
	// completes inline, so exercise the queue by issuing B first with A
	// still pending (B takes the slot, commits; then A).
	if err := m.RequestCommit("B"); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "A", StateCommitted)
	mustState(t, m, "B", StateCommitted)
	if v, _ := m.Permanent("X", ""); v.Int64() != 106 {
		t.Fatalf("permanent = %s, want 106 (100+4+2)", v)
	}
	if !done["B"] {
		t.Error("B never saw EvCommitted")
	}
}

func TestSSTFailureAborts(t *testing.T) {
	m, store, _ := testManager(t)
	store.FailNext(1)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.Apply("A", "X", sem.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err) // RequestCommit itself succeeds; the failure is async state
	}
	mustState(t, m, "A", StateAborted)
	info, _ := m.TxInfo("A")
	if info.Reason != AbortSSTFailure || info.Err == nil {
		t.Errorf("abort info = %+v", info)
	}
	if v, _ := m.Permanent("X", ""); v.Int64() != 100 {
		t.Errorf("permanent after failed SST = %s, want 100", v)
	}
	st := m.Stats()
	if st.SSTFailures != 1 || st.AbortsBy[AbortSSTFailure] != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUserAbortReleasesWaiters(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	granted := false
	mustBegin(t, m, "B", WithNotify(func(ev Event) {
		if ev.Type == EvGranted {
			granted = true
		}
	}))
	mustInvoke(t, m, "A", "X", assignOp)
	if mustInvoke(t, m, "B", "X", addOp) {
		t.Fatal("add must wait behind assign")
	}
	if err := m.Abort("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "A", StateAborted)
	mustState(t, m, "B", StateActive)
	if !granted {
		t.Error("B not granted after A's abort")
	}
	if err := m.Abort("A"); !errors.Is(err, ErrBadState) {
		t.Errorf("double abort = %v", err)
	}
	// Aborted A's virtual work never reached the store.
	if v, _ := m.Permanent("X", ""); v.Int64() != 100 {
		t.Errorf("permanent = %s", v)
	}
}

func TestSleepingHolderAdmitsIncompatibleThenAbortsOnAwake(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.Apply("A", "X", sem.Int(5)); err != nil {
		t.Fatal(err)
	}

	// B's assign conflicts while A is active…
	if granted, _ := m.Invoke("B", "X", assignOp); granted {
		t.Fatal("assign granted against an active add")
	}
	mustState(t, m, "B", StateWaiting)

	// …but once A sleeps (disconnection), B is admitted.
	clk.Advance(time.Second)
	if err := m.Sleep("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "A", StateSleeping)
	mustState(t, m, "B", StateActive)

	// A awakes into a conflict: aborted (Algorithm 9, third case).
	clk.Advance(time.Second)
	resumed, err := m.Awake("A")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("A must not resume over B's incompatible assign")
	}
	mustState(t, m, "A", StateAborted)
	info, _ := m.TxInfo("A")
	if info.Reason != AbortSleepConflict {
		t.Errorf("reason = %s", info.Reason)
	}
	st := m.Stats()
	if st.AwakeAborts != 1 {
		t.Errorf("AwakeAborts = %d", st.AwakeAborts)
	}
}

func TestSleepAwakeResumesWithoutConflict(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.Apply("A", "X", sem.Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sleep("A"); err != nil {
		t.Fatal(err)
	}

	// A compatible transaction commits during the sleep.
	clk.Advance(time.Second)
	mustInvoke(t, m, "B", "X", addOp)
	if err := m.Apply("B", "X", sem.Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit("B"); err != nil {
		t.Fatal(err)
	}

	clk.Advance(time.Second)
	resumed, err := m.Awake("A")
	if err != nil || !resumed {
		t.Fatalf("Awake = %v, %v; want resumed", resumed, err)
	}
	mustState(t, m, "A", StateActive)
	// A's virtual copy is untouched; reconciliation absorbs B's +7.
	if v, _ := m.ReadValue("A", "X"); v.Int64() != 105 {
		t.Fatalf("A_temp = %s, want 105", v)
	}
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Permanent("X", ""); v.Int64() != 112 {
		t.Fatalf("final = %s, want 112 (100+5+7)", v)
	}
}

func TestSleepWhileWaitingAwakeGrantsDirectly(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", assignOp)
	if err := m.Apply("A", "X", sem.Int(42)); err != nil {
		t.Fatal(err)
	}
	if granted, _ := m.Invoke("B", "X", addOp); granted {
		t.Fatal("B must wait behind the assign")
	}
	if err := m.Sleep("B"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "B", StateSleeping)

	// A commits and vanishes; B is still asleep, so not yet admitted.
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "B", StateSleeping)

	// B awakes after the incompatible commit… which is a conflict with a
	// transaction committed after B_tsleep: abort (Algorithm 9).
	clk.Advance(time.Second)
	resumed, err := m.Awake("B")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("B slept across an incompatible commit; must abort")
	}
	mustState(t, m, "B", StateAborted)
}

func TestSleepWhileWaitingAwakeResumesWhenHolderAborted(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", assignOp)
	if granted, _ := m.Invoke("B", "X", addOp); granted {
		t.Fatal("B must wait")
	}
	if err := m.Sleep("B"); err != nil {
		t.Fatal(err)
	}
	// The incompatible holder aborts: nothing committed, no conflict left.
	if err := m.Abort("A"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	resumed, err := m.Awake("B")
	if err != nil || !resumed {
		t.Fatalf("Awake = %v, %v", resumed, err)
	}
	mustState(t, m, "B", StateActive)
	// B's queued invocation was granted directly on awake.
	if v, err := m.ReadValue("B", "X"); err != nil || v.Int64() != 100 {
		t.Fatalf("B's granted copy = %s, %v", v, err)
	}
}

func TestDeadlockDetectedOnInvoke(t *testing.T) {
	m, store, _ := testManager(t)
	refY := StoreRef{Table: "T", Key: "Y", Column: "v"}
	store.Seed(refY, sem.Int(7))
	if err := m.RegisterAtomicObject("Y", refY); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", assignOp)
	mustInvoke(t, m, "B", "Y", assignOp)
	if granted, _ := m.Invoke("A", "Y", assignOp); granted {
		t.Fatal("A must wait for Y")
	}
	_, err := m.Invoke("B", "X", assignOp)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("closing the cycle = %v, want ErrDeadlock", err)
	}
	// B stays Active and can abort to break the cycle.
	mustState(t, m, "B", StateActive)
	if err := m.Abort("B"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "A", StateActive) // granted Y after B's abort
}

func TestOneInvocationPerObject(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)
	if _, err := m.Invoke("A", "X", addOp); !errors.Is(err, ErrOneOpPerObj) {
		t.Errorf("second invocation = %v", err)
	}
}

func TestApplyErrors(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	if err := m.Apply("A", "X", sem.Int(1)); !errors.Is(err, ErrNotInvoked) {
		t.Errorf("apply before invoke = %v", err)
	}
	mustBegin(t, m, "R")
	mustInvoke(t, m, "R", "X", readOp)
	if err := m.Apply("R", "X", sem.Int(1)); !errors.Is(err, ErrOpClass) {
		t.Errorf("apply on read invocation = %v", err)
	}
	if _, err := m.ReadValue("A", "X"); !errors.Is(err, ErrNotInvoked) {
		t.Errorf("read before invoke = %v", err)
	}
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.Apply("A", "X", sem.Str("zap")); err == nil {
		t.Error("adding a string must fail")
	}
	if _, err := m.Invoke("A", "X", sem.Op{Class: sem.Class(77)}); !errors.Is(err, ErrOpClass) {
		t.Errorf("invalid class = %v", err)
	}
}

func TestStateGuards(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", assignOp)
	if granted, _ := m.Invoke("B", "X", addOp); granted {
		t.Fatal("B should wait")
	}
	// Waiting transactions cannot invoke, commit, or awake.
	if _, err := m.Invoke("B", "X", addOp); !errors.Is(err, ErrBadState) && !errors.Is(err, ErrOneOpPerObj) {
		t.Errorf("invoke while waiting = %v", err)
	}
	if err := m.RequestCommit("B"); !errors.Is(err, ErrBadState) {
		t.Errorf("commit while waiting = %v", err)
	}
	if _, err := m.Awake("B"); !errors.Is(err, ErrBadState) {
		t.Errorf("awake while waiting = %v", err)
	}
	// Sleeping requires Active or Waiting.
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	if err := m.Sleep("A"); !errors.Is(err, ErrBadState) {
		t.Errorf("sleep after commit = %v", err)
	}
}

func TestForget(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	if err := m.Forget("A"); !errors.Is(err, ErrBadState) {
		t.Errorf("forget active = %v", err)
	}
	if err := m.Abort("A"); err != nil {
		t.Fatal(err)
	}
	if err := m.Forget("A"); err != nil {
		t.Fatal(err)
	}
	if err := m.Forget("A"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("double forget = %v", err)
	}
	// The id is reusable.
	mustBegin(t, m, "A")
}

func TestPrioritiesReorderWaiters(t *testing.T) {
	m, _, _ := testManager(t, WithPriorities())
	mustBegin(t, m, "H", WithPriority(10))
	mustBegin(t, m, "L", WithPriority(1))
	mustBegin(t, m, "Holder")
	mustInvoke(t, m, "Holder", "X", assignOp)

	var order []TxID
	note := func(ev Event) {
		if ev.Type == EvGranted {
			order = append(order, ev.Tx)
		}
	}
	// Re-begin with listeners: use fresh ids to keep it simple.
	mustBegin(t, m, "low", WithPriority(1), WithNotify(note))
	mustBegin(t, m, "high", WithPriority(10), WithNotify(note))
	if granted, _ := m.Invoke("low", "X", assignOp); granted {
		t.Fatal("low must wait")
	}
	if granted, _ := m.Invoke("high", "X", assignOp); granted {
		t.Fatal("high must wait")
	}
	if err := m.Abort("Holder"); err != nil {
		t.Fatal(err)
	}
	// Only one assign can hold X; high must be first.
	if len(order) != 1 || order[0] != "high" {
		t.Fatalf("grant order = %v, want [high]", order)
	}
}

func TestIncompatibleWaiterCap(t *testing.T) {
	m, _, _ := testManager(t, WithIncompatibleWaiterCap(1))
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustBegin(t, m, "W")
	mustInvoke(t, m, "A", "X", addOp)
	// An incompatible writer queues.
	if granted, _ := m.Invoke("W", "X", assignOp); granted {
		t.Fatal("assign must wait")
	}
	// A compatible join is now denied (queued) to protect the writer.
	if granted, _ := m.Invoke("B", "X", addOp); granted {
		t.Fatal("compatible join must be deferred past the waiter cap")
	}
	mustState(t, m, "B", StateWaiting)
	if st := m.Stats(); st.DeniedAdmits != 1 {
		t.Errorf("DeniedAdmits = %d", st.DeniedAdmits)
	}
	// Once A commits, the writer goes first, then B.
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "W", StateActive)
	mustState(t, m, "B", StateWaiting) // still blocked behind the assign
}

func TestIncompatibleWaiterCapHardDenial(t *testing.T) {
	m, _, _ := testManager(t, WithIncompatibleWaiterCap(1), WithHardDenial())
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustBegin(t, m, "W")
	mustInvoke(t, m, "A", "X", addOp)
	if granted, _ := m.Invoke("W", "X", assignOp); granted {
		t.Fatal("assign must wait")
	}
	if _, err := m.Invoke("B", "X", addOp); !errors.Is(err, ErrDenied) {
		t.Errorf("hard denial = %v", err)
	}
}

func TestHeadroomLimitsCompatibleUpdaters(t *testing.T) {
	// Allow at most permanent-value/50 concurrent updaters: X=100 → 2.
	m, _, _ := testManager(t, WithHeadroom(func(_ ObjectID, perm sem.Value) int {
		return int(perm.Int64() / 50)
	}))
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustBegin(t, m, "C")
	mustInvoke(t, m, "A", "X", addOp)
	mustInvoke(t, m, "B", "X", addOp)
	if granted, _ := m.Invoke("C", "X", addOp); granted {
		t.Fatal("third updater exceeds headroom 2")
	}
	mustState(t, m, "C", StateWaiting)
	// Reads are not limited.
	mustBegin(t, m, "R")
	if !mustInvoke(t, m, "R", "X", readOp) {
		t.Error("reads must pass headroom")
	}
	// A commits; C admitted.
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "C", StateActive)
}

func TestStrictConflictAblation(t *testing.T) {
	m, _, _ := testManager(t, WithConflictFunc(StrictRWConflict))
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", addOp)
	if granted, _ := m.Invoke("B", "X", addOp); granted {
		t.Fatal("with StrictRWConflict two adds must conflict")
	}
	mustBegin(t, m, "R1")
	mustBegin(t, m, "R2")
	// Reads conflict with the add too (read/write conflict)…
	if granted, _ := m.Invoke("R1", "X", readOp); granted {
		t.Fatal("read vs add must conflict in strict mode")
	}
	// …but pure readers share once the writer is gone.
	if err := m.Abort("A"); err != nil {
		t.Fatal(err)
	}
	// B was granted by the abort dispatch. Abort B to free X for readers.
	if err := m.Abort("B"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "R1", StateActive)
	if !mustInvoke(t, m, "R2", "X", readOp) {
		t.Error("two reads must share in strict mode")
	}
}

func TestMulDivFlow(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", mulOp)
	mustInvoke(t, m, "B", "X", mulOp)
	if err := m.Apply("A", "X", sem.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply("B", "X", sem.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestCommit("B"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Permanent("X", ""); v.Int64() != 600 {
		t.Fatalf("final = %s, want 600 (100·2·3)", v)
	}
}

func TestMemberLevelIndependence(t *testing.T) {
	m, store, _ := testManager(t)
	qRef := StoreRef{Table: "P", Key: "p1", Column: "qty"}
	pRef := StoreRef{Table: "P", Key: "p1", Column: "price"}
	store.Seed(qRef, sem.Int(10))
	store.Seed(pRef, sem.Int(5))
	if err := m.RegisterObject("P1", map[string]StoreRef{"qty": qRef, "price": pRef}, nil); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	// Independent members: assigns on different members coexist.
	if !mustInvoke(t, m, "A", "P1", sem.Op{Class: sem.Assign, Member: "qty"}) {
		t.Fatal("A not granted")
	}
	if !mustInvoke(t, m, "B", "P1", sem.Op{Class: sem.Assign, Member: "price"}) {
		t.Fatal("independent member assign must be granted")
	}
}

func TestMemberLevelDependence(t *testing.T) {
	m, store, _ := testManager(t)
	qRef := StoreRef{Table: "P", Key: "p1", Column: "qty"}
	pRef := StoreRef{Table: "P", Key: "p1", Column: "price"}
	store.Seed(qRef, sem.Int(10))
	store.Seed(pRef, sem.Int(5))
	deps := sem.NewDependencies()
	deps.Link("qty", "price")
	if err := m.RegisterObject("P1", map[string]StoreRef{"qty": qRef, "price": pRef}, deps); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	if !mustInvoke(t, m, "A", "P1", sem.Op{Class: sem.Assign, Member: "qty"}) {
		t.Fatal("A not granted")
	}
	if mustInvoke(t, m, "B", "P1", sem.Op{Class: sem.Assign, Member: "price"}) {
		t.Fatal("logically dependent member assign must conflict")
	}
}

func TestStatsAndInfo(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A", WithPriority(3))
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Begun != 1 || st.Committed != 1 || st.Grants != 1 {
		t.Errorf("stats = %+v", st)
	}
	info, err := m.TxInfo("A")
	if err != nil || info.State != StateCommitted || info.Priority != 3 ||
		len(info.Objects) != 1 || info.Objects[0] != "X" {
		t.Errorf("info = %+v, %v", info, err)
	}
	if objs := m.Objects(); len(objs) != 1 || objs[0] != "X" {
		t.Errorf("Objects() = %v", objs)
	}
}

func TestCommitWithNoInvocations(t *testing.T) {
	m, _, _ := testManager(t)
	mustBegin(t, m, "A")
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	mustState(t, m, "A", StateCommitted)
}

func TestStateStrings(t *testing.T) {
	names := map[State]string{
		StateActive: "Active", StateWaiting: "Waiting", StateSleeping: "Sleeping",
		StateCommitting: "Committing", StateAborting: "Aborting",
		StateCommitted: "Committed", StateAborted: "Aborted",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(99).String() != "State(99)" {
		t.Error("unknown state string")
	}
	if !StateCommitted.Terminal() || !StateAborted.Terminal() || StateActive.Terminal() {
		t.Error("Terminal() broken")
	}
	for r, want := range map[AbortReason]string{
		AbortUser: "user", AbortSleepConflict: "sleep-conflict",
		AbortSSTFailure: "sst-failure", AbortDeadlock: "deadlock", AbortTimeout: "timeout",
	} {
		if r.String() != want {
			t.Errorf("reason %d = %q", r, r.String())
		}
	}
	if AbortReason(99).String() != "AbortReason(99)" {
		t.Error("unknown reason string")
	}
	for e, want := range map[EventType]string{
		EvGranted: "granted", EvCommitted: "committed", EvAborted: "aborted",
	} {
		if e.String() != want {
			t.Errorf("event %d = %q", e, e.String())
		}
	}
	if EventType(99).String() != "EventType(99)" {
		t.Error("unknown event string")
	}
}
