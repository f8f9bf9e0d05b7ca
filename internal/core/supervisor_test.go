package core

import (
	"context"
	"testing"
	"time"

	"preserial/internal/sem"
)

func TestSupervisorIdleOracle(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)

	cfg := SupervisorConfig{IdleTimeout: 10 * time.Second}
	// Not idle yet.
	if rep := m.Supervise(cfg); len(rep.PutToSleep) != 0 {
		t.Fatalf("premature sleep: %+v", rep)
	}
	clk.Advance(5 * time.Second)
	if err := m.Apply("A", "X", sem.Int(1)); err != nil { // interaction resets the clock
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	if rep := m.Supervise(cfg); len(rep.PutToSleep) != 0 {
		t.Fatalf("activity must reset the idle clock: %+v", rep)
	}
	clk.Advance(3 * time.Second)
	rep := m.Supervise(cfg)
	if len(rep.PutToSleep) != 1 || rep.PutToSleep[0] != "A" {
		t.Fatalf("report = %+v", rep)
	}
	mustState(t, m, "A", StateSleeping)
	// The sleeper can awaken and commit as usual (nothing conflicted).
	resumed, err := m.Awake("A")
	if err != nil || !resumed {
		t.Fatalf("awake = %v, %v", resumed, err)
	}
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
}

func TestSupervisorWaitTimeout(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "A", "X", assignOp)
	if granted, _ := m.Invoke("B", "X", assignOp); granted {
		t.Fatal("B must wait")
	}
	cfg := SupervisorConfig{WaitTimeout: 30 * time.Second}
	clk.Advance(29 * time.Second)
	if rep := m.Supervise(cfg); len(rep.Aborted) != 0 {
		t.Fatalf("premature abort: %+v", rep)
	}
	clk.Advance(2 * time.Second)
	rep := m.Supervise(cfg)
	if len(rep.Aborted) != 1 || rep.Aborted[0] != "B" {
		t.Fatalf("report = %+v", rep)
	}
	info, _ := m.TxInfo("B")
	if info.State != StateAborted || info.Reason != AbortTimeout {
		t.Errorf("info = %+v", info)
	}
}

func TestSupervisorSleepAbort(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)
	if err := m.Sleep("A"); err != nil {
		t.Fatal(err)
	}
	cfg := SupervisorConfig{SleepAbortAfter: time.Hour}
	clk.Advance(59 * time.Minute)
	if rep := m.Supervise(cfg); len(rep.Aborted) != 0 {
		t.Fatalf("premature abort: %+v", rep)
	}
	clk.Advance(2 * time.Minute)
	rep := m.Supervise(cfg)
	if len(rep.Aborted) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	info, _ := m.TxInfo("A")
	if info.Reason != AbortTimeout {
		t.Errorf("reason = %s", info.Reason)
	}
}

func TestSupervisorZeroConfigIsInert(t *testing.T) {
	m, _, clk := testManager(t)
	mustBegin(t, m, "A")
	mustInvoke(t, m, "A", "X", addOp)
	clk.Advance(24 * time.Hour)
	rep := m.Supervise(SupervisorConfig{})
	if len(rep.PutToSleep) != 0 || len(rep.Aborted) != 0 {
		t.Fatalf("zero config acted: %+v", rep)
	}
	mustState(t, m, "A", StateActive)
}

func TestSupervisorBreaksUndetectedDeadlock(t *testing.T) {
	// A policy wait adds no wait-for edge, so a cycle through one escapes
	// the invocation-time check and persists until the wait-timeout victim
	// policy fires. Headroom 1 admits one updater per object: B's add/sub
	// on X queues behind A's for policy, and A's assign on Y then waits on
	// B's conflicting assign.
	m, store, clk := testManager(t, WithHeadroom(func(ObjectID, sem.Value) int { return 1 }))
	refY := StoreRef{Table: "T", Key: "Y", Column: "v"}
	store.Seed(refY, sem.Int(1))
	if err := m.RegisterAtomicObject("Y", refY); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "A")
	mustBegin(t, m, "B")
	mustInvoke(t, m, "B", "Y", assignOp)
	mustInvoke(t, m, "A", "X", addOp)
	if granted, err := m.Invoke("B", "X", addOp); granted || err != nil {
		t.Fatalf("B must queue for headroom: granted=%v err=%v", granted, err)
	}
	if granted, err := m.Invoke("A", "Y", assignOp); granted || err != nil {
		t.Fatalf("A must wait on B (deadlock formed): granted=%v err=%v", granted, err)
	}
	clk.Advance(time.Minute)
	rep := m.Supervise(SupervisorConfig{WaitTimeout: 30 * time.Second})
	if len(rep.Aborted) == 0 {
		t.Fatal("victim policy did not fire")
	}
	// At least one survivor must now be able to proceed; both may have
	// been picked, which also clears the deadlock.
	stA, _ := m.TxState("A")
	stB, _ := m.TxState("B")
	if stA == StateWaiting && stB == StateWaiting {
		t.Errorf("deadlock persists: A=%s B=%s", stA, stB)
	}
}

func TestRunSupervisorWallClock(t *testing.T) {
	// Smoke test of the ticker loop on the real clock.
	store := NewMemStore()
	ref := StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(1))
	m := NewManager(store)
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Invoke("A", "X", sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		RunSupervisor(ctx, m, SupervisorConfig{IdleTimeout: time.Millisecond}, 2*time.Millisecond)
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := m.TxState("A")
		if st == StateSleeping {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("supervisor never put the idle transaction to sleep")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}
