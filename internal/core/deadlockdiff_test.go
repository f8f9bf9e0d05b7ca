package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"preserial/internal/clock"
	"preserial/internal/sem"
)

// Differential test of the invocation-time deadlock check. The reference is
// the check it replaced: build the whole wait-for graph from every object
// (waitEdgesLocked) and search it. On every conflicting invocation of a
// seeded random schedule both must return the same verdict, and Invoke must
// act on it.

// refWouldDeadlock is the reference search over a prebuilt graph.
func refWouldDeadlock(edges map[TxID][]TxID, waiter TxID, blockers []TxID) bool {
	seen := make(map[TxID]bool)
	var reaches func(TxID) bool
	reaches = func(from TxID) bool {
		if from == waiter {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		for _, next := range edges[from] {
			if reaches(next) {
				return true
			}
		}
		return false
	}
	for _, b := range blockers {
		if reaches(b) {
			return true
		}
	}
	return false
}

// deadlockVerdicts evaluates both checks for txID invoking op on objID as
// the manager stands. conflicting is false when no holder blocks the
// invocation, so Invoke runs no check. commitQueued reports whether some
// object has a queued committer, i.e. whether commit-slot edges exist.
func deadlockVerdicts(m *Manager, txID TxID, objID ObjectID, op sem.Op) (conflicting, onDemand, ref, commitQueued bool) {
	defer m.mon.enter(m)()
	o := m.objs.get(objID)
	if !o.holdersConflicting(txID, op) {
		return false, false, false, false
	}
	for _, x := range m.objs.all {
		commitQueued = commitQueued || len(x.commitQ) > 0
	}
	blockers := o.conflictingHolders(txID, op)
	return true, m.wouldDeadlockLocked(txID, blockers), refWouldDeadlock(m.waitEdgesLocked(), txID, blockers), commitQueued
}

// deadlockDiffStats counts what one seed's schedule exercised.
type deadlockDiffStats struct {
	checks, deadlocks, commitQueued int
}

func TestDeadlockCheckDifferential(t *testing.T) {
	var total deadlockDiffStats
	for seed := int64(1); seed <= 200; seed++ {
		st := runDeadlockDiff(t, seed, 500)
		total.checks += st.checks
		total.deadlocks += st.deadlocks
		total.commitQueued += st.commitQueued
	}
	if total.deadlocks == 0 || total.commitQueued == 0 {
		t.Fatalf("schedule too tame: %+v", total)
	}
	t.Logf("%d checks, %d deadlocks, %d with a queued committer", total.checks, total.deadlocks, total.commitQueued)
}

func runDeadlockDiff(t *testing.T, seed int64, steps int) deadlockDiffStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store := NewMemStore()
	m := NewManager(store, WithClock(clock.NewManual()))
	objs := []ObjectID{"a", "b", "c", "d"}
	for _, id := range objs {
		ref := StoreRef{Table: "T", Key: string(id), Column: "v"}
		store.Seed(ref, sem.Int(1000))
		if err := m.RegisterAtomicObject(id, ref); err != nil {
			t.Fatal(err)
		}
	}
	classes := []sem.Class{sem.Read, sem.InsertDelete, sem.Assign, sem.AddSub, sem.AddSub, sem.MulDiv}

	var (
		st       deadlockDiffStats
		live     []TxID // begun and not known terminal
		terminal []TxID // terminal, not yet forgotten
		nextTx   int
	)
	pick := func() TxID { return live[min(rng.Intn(len(live)), rng.Intn(len(live)))] }
	const maxLive = 10

	for step := 0; step < steps; step++ {
		switch k := rng.Intn(100); {
		case len(live) == 0 || (k < 15 && len(live) < maxLive): // begin
			id := TxID(fmt.Sprintf("t%d", nextTx))
			nextTx++
			if err := m.Begin(id); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case k < 50: // invoke, then apply when granted
			id, obj := pick(), objs[rng.Intn(len(objs))]
			op := sem.Op{Class: classes[rng.Intn(len(classes))]}
			conflicting, onDemand, ref, cq := deadlockVerdicts(m, id, obj, op)
			if onDemand != ref {
				t.Fatalf("seed %d step %d: %s invoking %v on %s: on-demand check says %v, full graph says %v (graph %v)",
					seed, step, id, op.Class, obj, onDemand, ref, m.WaitGraph())
			}
			granted, err := m.Invoke(id, obj, op)
			if err != nil && !errors.Is(err, ErrDeadlock) {
				break // refused before the check: wrong state or a second op on obj
			}
			if conflicting {
				st.checks++
				if cq {
					st.commitQueued++
				}
			}
			if got, want := errors.Is(err, ErrDeadlock), conflicting && ref; got != want {
				t.Fatalf("seed %d step %d: %s invoking on %s returned %v, deadlock expected %v", seed, step, id, obj, err, want)
			}
			if err != nil {
				st.deadlocks++
			}
			if granted && op.Class.IsUpdate() {
				_ = m.Apply(id, obj, sem.Int(int64(rng.Intn(5)+1)))
			}
		case k < 62: // commit; queues for busy committer slots
			_ = m.RequestCommit(pick())
		case k < 68: // cross-shard prepare: holds committer slots until decided
			_ = m.PrepareCommit(pick())
		case k < 74: // coordinator decision
			_ = m.Decide(pick(), rng.Intn(3) > 0)
		case k < 82: // sleep a holder or a waiter
			_ = m.Sleep(pick())
		case k < 90:
			_, _ = m.Awake(pick())
		case k < 95:
			_ = m.Abort(pick())
		default: // forget a terminal transaction
			if len(terminal) > 0 {
				i := rng.Intn(len(terminal))
				if err := m.Forget(terminal[i]); err != nil {
					t.Fatal(err)
				}
				terminal = append(terminal[:i], terminal[i+1:]...)
			}
		}
		live = dropIf(live, func(id TxID) bool {
			s, err := m.TxState(id)
			if err != nil {
				t.Fatal(err)
			}
			if s.Terminal() {
				terminal = append(terminal, id)
			}
			return s.Terminal()
		})
	}
	checkInvariants(t, m, steps)
	return st
}
