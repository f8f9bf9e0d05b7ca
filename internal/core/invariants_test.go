package core

import (
	"fmt"
	"math/rand"
	"testing"

	"preserial/internal/sem"
)

// checkInvariants asserts the structural invariants of the Section IV/V
// model on the manager's internal state. Called under no lock — tests are
// single-goroutine here.
func checkInvariants(t *testing.T, m *Manager, step int) {
	t.Helper()
	defer m.mon.enter(m)()

	for _, o := range m.objs.all {
		objID := o.id
		// I1: no two non-sleeping holders (pending ∪ committing) conflict.
		for i := range o.holders {
			for j := i + 1; j < len(o.holders); j++ {
				a, b := &o.holders[i], &o.holders[j]
				if a.blocks() && b.blocks() && o.conflict(a.op, b.op, o.deps) {
					t.Fatalf("step %d: I1 violated on %s: %s(%s) and %s(%s) both hold",
						step, objID, a.tx, a.op, b.tx, b.op)
				}
			}
		}
		// I2: at most one transaction in X_committing.
		committers := 0
		for i := range o.holders {
			if o.holders[i].flags&holdCommitting != 0 {
				committers++
			}
		}
		if committers > 1 {
			t.Fatalf("step %d: I2 violated on %s: %d committers", step, objID, committers)
		}
		// I3: every waiter's transaction is Waiting or Sleeping, and a
		// waiter is marked sleeping exactly when its transaction sleeps.
		for _, w := range o.waiting {
			wt := m.txs[w.tx]
			if wt == nil {
				t.Fatalf("step %d: I3: waiter %s not registered", step, w.tx)
			}
			if wt.state != StateWaiting && wt.state != StateSleeping {
				t.Fatalf("step %d: I3: waiter %s in state %s", step, w.tx, wt.state)
			}
			if w.sleeping != (wt.state == StateSleeping) {
				t.Fatalf("step %d: I3: waiter %s sleeping=%v in state %s", step, w.tx, w.sleeping, wt.state)
			}
		}
		// I4: one holder per transaction, in exactly one of X_pending,
		// X_committing or the released reads; X_sleeping ⊆ X_pending and
		// mirrors the transaction state.
		seen := make(map[TxID]bool)
		for i := range o.holders {
			h := &o.holders[i]
			if seen[h.tx] {
				t.Fatalf("step %d: I4: %s holds %s twice", step, h.tx, objID)
			}
			seen[h.tx] = true
			switch h.flags &^ holdSleeping {
			case holdPending, holdCommitting, holdReleased:
			default:
				t.Fatalf("step %d: I4: %s on %s has flags %04b", step, h.tx, objID, h.flags)
			}
			ht := m.txs[h.tx]
			if ht == nil {
				t.Fatalf("step %d: I4: holder %s on %s not registered", step, h.tx, objID)
			}
			if sleeping := h.flags&holdSleeping != 0; sleeping != (ht.state == StateSleeping) {
				t.Fatalf("step %d: I4: holder %s on %s sleeping=%v in state %s", step, h.tx, objID, sleeping, ht.state)
			}
			if h.flags&holdReleased != 0 && h.op.Class != sem.Read {
				t.Fatalf("step %d: I4: released holder %s on %s is %s, not a read", step, h.tx, objID, h.op)
			}
			// I5: a transaction's object list covers everything it holds.
			if !containsObject(ht.objects, o) {
				t.Fatalf("step %d: I5: %s holds %s but does not list it", step, h.tx, objID)
			}
		}
	}

	// I6: transaction state ↔ object membership coherence.
	for id, tr := range m.txs {
		for i, o := range tr.objects {
			if containsObject(tr.objects[:i], o) {
				t.Fatalf("step %d: I5: %s lists %s twice", step, id, o.id)
			}
		}
		if tr.state.Terminal() != (tr.txLive == nil) {
			t.Fatalf("step %d: I6: %s is %s with live state present=%v", step, id, tr.state, tr.txLive != nil)
		}
		switch tr.state {
		case StateCommitted, StateAborted:
			for _, o := range m.objs.all {
				objID := o.id
				if o.holder(id) != nil {
					t.Fatalf("step %d: I6: terminal %s still holds %s", step, id, objID)
				}
				if o.waiterFor(id) != nil {
					t.Fatalf("step %d: I6: terminal %s still queued on %s", step, id, objID)
				}
			}
		case StateSleeping:
			if tr.tsleep.IsZero() {
				t.Fatalf("step %d: I6: sleeper %s without A_tsleep", step, id)
			}
		case StateWaiting:
			found := false
			for _, o := range tr.objects {
				if o.waiterFor(id) != nil {
					found = true
				}
			}
			if !found {
				t.Fatalf("step %d: I6: %s Waiting but queued nowhere", step, id)
			}
		}
	}
}

func containsObject(objs []*object, o *object) bool {
	for _, x := range objs {
		if x == o {
			return true
		}
	}
	return false
}

// TestInvariantRandomWalk drives the Manager through long random event
// sequences — begin, invoke (all classes), apply, sleep, awake, commit,
// abort, in arbitrary orders including illegal ones (errors expected) —
// and checks the structural invariants after every step.
func TestInvariantRandomWalk(t *testing.T) {
	classes := []sem.Class{sem.Read, sem.AddSub, sem.MulDiv, sem.Assign, sem.InsertDelete}
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := NewMemStore()
			m := NewManager(store)
			const objects = 3
			for i := 0; i < objects; i++ {
				ref := StoreRef{Table: "T", Key: fmt.Sprintf("X%d", i), Column: "v"}
				store.Seed(ref, sem.Int(100))
				if err := m.RegisterAtomicObject(ObjectID(fmt.Sprintf("X%d", i)), ref); err != nil {
					t.Fatal(err)
				}
			}
			var ids []TxID
			nextID := 0
			for step := 0; step < 600; step++ {
				switch rng.Intn(10) {
				case 0, 1: // begin
					id := TxID(fmt.Sprintf("t%03d", nextID))
					nextID++
					if err := m.Begin(id); err == nil {
						ids = append(ids, id)
					}
				case 2, 3, 4: // invoke
					if len(ids) == 0 {
						continue
					}
					id := ids[rng.Intn(len(ids))]
					obj := ObjectID(fmt.Sprintf("X%d", rng.Intn(objects)))
					op := sem.Op{Class: classes[rng.Intn(len(classes))]}
					_, _ = m.Invoke(id, obj, op) // errors fine (bad state, dup, deadlock)
				case 5: // apply
					if len(ids) == 0 {
						continue
					}
					id := ids[rng.Intn(len(ids))]
					obj := ObjectID(fmt.Sprintf("X%d", rng.Intn(objects)))
					_ = m.Apply(id, obj, sem.Int(int64(rng.Intn(5)+1)))
				case 6: // sleep
					if len(ids) == 0 {
						continue
					}
					_ = m.Sleep(ids[rng.Intn(len(ids))])
				case 7: // awake
					if len(ids) == 0 {
						continue
					}
					_, _ = m.Awake(ids[rng.Intn(len(ids))])
				case 8: // commit
					if len(ids) == 0 {
						continue
					}
					_ = m.RequestCommit(ids[rng.Intn(len(ids))])
				case 9: // abort
					if len(ids) == 0 {
						continue
					}
					_ = m.Abort(ids[rng.Intn(len(ids))])
				}
				checkInvariants(t, m, step)
			}
			// Drain: everything still live gets aborted; invariants must
			// hold at quiescence and all aborts must succeed or be terminal.
			for _, id := range ids {
				st, err := m.TxState(id)
				if err != nil {
					t.Fatal(err)
				}
				if !st.Terminal() {
					if err := m.Abort(id); err != nil {
						t.Fatalf("drain abort of %s (%s): %v", id, st, err)
					}
				}
			}
			checkInvariants(t, m, 9999)
			// Post-drain: no object retains any per-transaction state.
			defer m.mon.enter(m)()
			for _, o := range m.objs.all {
				objID := o.id
				if len(o.holders)+len(o.waiting) != 0 {
					t.Fatalf("object %s not empty after drain", objID)
				}
			}
		})
	}
}
