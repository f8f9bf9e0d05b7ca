package twopl

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"preserial/internal/clock"
	"preserial/internal/core"
	"preserial/internal/sem"
)

// Differential test of the lock-time deadlock check. The reference is the
// check it replaced: rebuild the whole wait-for graph from every object's
// queue and search it. On every blocked request of a seeded random schedule
// both must return the same verdict, and Lock must act on it.

// refWouldDeadlock is the reference: the full rebuild, then a search.
func refWouldDeadlock(s *Scheduler, id TxID, blockers []TxID) bool {
	edges := make(map[TxID][]TxID)
	for _, o := range s.objs {
		for _, w := range o.queue {
			edges[w.tx] = append(edges[w.tx], s.blockersLocked(o, w.tx, w.mode)...)
		}
	}
	seen := make(map[TxID]bool)
	var reaches func(TxID) bool
	reaches = func(from TxID) bool {
		if from == id {
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

// lockVerdicts evaluates both checks for txID requesting mode on objID as
// the scheduler stands. blocked is false when Lock would not reach the
// check (not Active, already strong enough, or grantable at once).
func lockVerdicts(s *Scheduler, txID TxID, objID ObjectID, mode Mode) (blocked, onDemand, ref bool) {
	defer s.enter()()
	t, o := s.txs[txID], s.objs[objID]
	if t.state != StateActive {
		return false, false, false
	}
	if held, ok := t.locks[objID]; ok && held >= mode {
		return false, false, false
	}
	if s.grantableLocked(o, txID, mode) {
		return false, false, false
	}
	blockers := s.blockersLocked(o, txID, mode)
	return true, s.wouldDeadlockLocked(txID, blockers), refWouldDeadlock(s, txID, blockers)
}

func TestDeadlockCheckDifferential(t *testing.T) {
	var checks, deadlocks, upgrades int
	for seed := int64(1); seed <= 200; seed++ {
		c, d, u := runLockDiff(t, seed, 400)
		checks, deadlocks, upgrades = checks+c, deadlocks+d, upgrades+u
	}
	if deadlocks == 0 || upgrades == 0 {
		t.Fatalf("schedule too tame: %d checks, %d deadlocks, %d blocked upgrades", checks, deadlocks, upgrades)
	}
	t.Logf("%d checks, %d deadlocks, %d blocked upgrades", checks, deadlocks, upgrades)
}

func runLockDiff(t *testing.T, seed int64, steps int) (checks, deadlocks, upgrades int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	store := core.NewMemStore()
	clk := clock.NewManual()
	s := New(store, clk)
	objs := []ObjectID{"a", "b", "c", "d", "e"}
	for _, id := range objs {
		ref := core.StoreRef{Table: "T", Key: string(id), Column: "v"}
		store.Seed(ref, sem.Int(1000))
		if err := s.RegisterObject(id, ref); err != nil {
			t.Fatal(err)
		}
	}
	held := make(map[TxID]map[ObjectID]Mode) // locks granted at once, per live tx
	var live []TxID
	nextTx := 0
	pick := func() TxID { return live[rng.Intn(len(live))] }
	const maxLive = 8

	for step := 0; step < steps; step++ {
		switch k := rng.Intn(100); {
		case len(live) == 0 || (k < 15 && len(live) < maxLive): // begin
			id := TxID(fmt.Sprintf("t%d", nextTx))
			nextTx++
			if err := s.Begin(id, nil); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
			held[id] = make(map[ObjectID]Mode)
		case k < 60: // lock, or upgrade a shared lock the tx holds
			id, obj, mode := pick(), objs[rng.Intn(len(objs))], Mode(rng.Intn(2))
			upgrade := false
			for _, o := range objs {
				if m, ok := held[id][o]; ok && m == Shared && rng.Intn(3) == 0 {
					obj, mode, upgrade = o, Exclusive, true
					break
				}
			}
			blocked, onDemand, ref := lockVerdicts(s, id, obj, mode)
			if onDemand != ref {
				t.Fatalf("seed %d step %d: %s requesting %s on %s: on-demand check says %v, full rebuild says %v",
					seed, step, id, mode, obj, onDemand, ref)
			}
			granted, err := s.Lock(id, obj, mode)
			if err != nil && !errors.Is(err, ErrDeadlock) {
				break // not Active
			}
			if got, want := errors.Is(err, ErrDeadlock), blocked && ref; got != want {
				t.Fatalf("seed %d step %d: %s requesting %s on %s returned %v, deadlock expected %v", seed, step, id, mode, obj, err, want)
			}
			if blocked {
				checks++
				if upgrade {
					upgrades++
				}
			}
			if err != nil {
				deadlocks++
				if rng.Intn(2) == 0 { // else the victim stays Active and carries on
					_ = s.Abort(id, AbortDeadlock)
				}
			}
			if granted {
				held[id][obj] = max(held[id][obj], mode)
			}
		case k < 70:
			_ = s.Disconnect(pick())
		case k < 75:
			_, _ = s.Reconnect(pick())
		case k < 82: // time passes; the supervision timeout kills long absences
			clk.Advance(time.Duration(rng.Intn(20)) * time.Second)
			s.ExpireTimeouts(30 * time.Second)
		case k < 95:
			_ = s.Commit(pick())
		default:
			_ = s.Abort(pick(), AbortUser)
		}
		keep := live[:0]
		for _, id := range live {
			if st, _ := s.TxState(id); st == StateCommitted || st == StateAborted {
				delete(held, id)
				continue
			}
			keep = append(keep, id)
		}
		live = keep
	}
	return checks, deadlocks, upgrades
}
