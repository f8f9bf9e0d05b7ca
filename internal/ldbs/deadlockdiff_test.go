package ldbs

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// Differential test of the lock manager's deadlock check. The reference
// rebuilds the exact wait-for graph from the lock table alone: every queued
// waiter waits for the holders whose modes conflict with its target and,
// unless it upgrades, for the conflicting waiters queued ahead of it. A
// seeded schedule runs concurrent Acquire calls — each blocked one parked in
// its own goroutine — with upgrades, cancelled contexts and rollbacks; on
// every blocked request both checks must agree, and Acquire must act on it.

// refWaitGraph rebuilds the wait-for graph from lm.locks. Caller holds lm.mu.
func refWaitGraph(lm *lockManager) map[uint64][]uint64 {
	edges := make(map[uint64][]uint64)
	for _, st := range lm.locks {
		for i, w := range st.queue {
			for h, hm := range st.holders {
				if h != w.tx && !w.mode.Compatible(hm) {
					edges[w.tx] = append(edges[w.tx], h)
				}
			}
			if w.upgrade {
				continue
			}
			for _, q := range st.queue[:i] {
				if q.tx != w.tx && !w.mode.Compatible(q.mode) {
					edges[w.tx] = append(edges[w.tx], q.tx)
				}
			}
		}
	}
	return edges
}

// refReaches reports whether waiter is reachable from some blocker.
func refReaches(edges map[uint64][]uint64, waiter uint64, blockers []uint64) bool {
	seen := make(map[uint64]bool)
	stack := append([]uint64(nil), blockers...)
	for len(stack) > 0 {
		tx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tx == waiter {
			return true
		}
		if !seen[tx] {
			seen[tx] = true
			stack = append(stack, edges[tx]...)
		}
	}
	return false
}

// acquireVerdicts evaluates both checks for tx requesting mode on res as the
// table stands, following Acquire's own path to the check. blocked is false
// when Acquire would return without checking.
func acquireVerdicts(lm *lockManager, tx uint64, res resource, mode LockMode) (blocked, upgrade, onDemand, ref bool) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.locks[res]
	if st == nil {
		return false, false, false, false
	}
	cur, holding := st.holders[tx]
	want := mode
	if holding {
		if want = sup(cur, mode); want == cur {
			return false, false, false, false
		}
	}
	if st.grantable(&waiter{tx: tx, mode: want, upgrade: holding}) {
		return false, false, false, false
	}
	blockers := st.blockersOf(tx, want, holding, nil)
	return true, holding, lm.wouldDeadlock(tx, blockers), refReaches(refWaitGraph(lm), tx, blockers)
}

// isQueued reports whether tx has a waiter in some queue.
func isQueued(lm *lockManager, tx uint64) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.queued[tx]) > 0
}

// pendingAcquire is a blocked Acquire parked in its own goroutine.
type pendingAcquire struct {
	cancel context.CancelFunc
	done   chan error
}

type lockDiffStats struct {
	checks, deadlocks, upgrades, cancels int
}

func TestDeadlockCheckDifferential(t *testing.T) {
	var total lockDiffStats
	for seed := int64(1); seed <= 200; seed++ {
		st := runLockDiff(t, seed, 150)
		total.checks += st.checks
		total.deadlocks += st.deadlocks
		total.upgrades += st.upgrades
		total.cancels += st.cancels
	}
	if total.deadlocks == 0 || total.upgrades == 0 || total.cancels == 0 {
		t.Fatalf("schedule too tame: %+v", total)
	}
	t.Logf("%+v", total)
}

func runLockDiff(t *testing.T, seed int64, steps int) lockDiffStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lm := newLockManager()
	var (
		st      lockDiffStats
		pending = make(map[uint64]*pendingAcquire)
		ress    = []resource{{Table: "T"}, {Table: "T", Key: "a"}, {Table: "T", Key: "b"}, {Table: "T", Key: "c"}}
		modes   = []LockMode{LockIS, LockIX, LockS, LockS, LockX, LockX}
	)
	const txs = 5
	// finish collects a parked Acquire that has returned, or must return.
	finish := func(tx uint64) {
		p := pending[tx]
		if err := <-p.done; err != nil && !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("seed %d: parked acquire of tx %d: %v", seed, tx, err)
		}
		p.cancel()
		delete(pending, tx)
	}

	for step := 0; step < steps; step++ {
		tx := uint64(1 + rng.Intn(txs))
		switch k := rng.Intn(100); {
		case pending[tx] != nil && k < 30: // the parked wait is cancelled
			pending[tx].cancel()
			finish(tx)
			st.cancels++
		case pending[tx] != nil && k < 40: // rolled back while waiting
			lm.ReleaseAll(tx)
			finish(tx)
		case pending[tx] != nil:
		case k < 80: // acquire, parking the request if it blocks
			res, mode := ress[rng.Intn(len(ress))], modes[rng.Intn(len(modes))]
			blocked, upgrade, onDemand, ref := acquireVerdicts(lm, tx, res, mode)
			if onDemand != ref {
				t.Fatalf("seed %d step %d: tx %d requesting %s on %s: on-demand check says %v, rebuilt graph says %v",
					seed, step, tx, mode, res, onDemand, ref)
			}
			if blocked {
				st.checks++
				if upgrade {
					st.upgrades++
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			p := &pendingAcquire{cancel: cancel, done: make(chan error, 1)}
			go func() { p.done <- lm.Acquire(ctx, tx, res, mode) }()
			var err error
			for settled := false; !settled; {
				select {
				case err = <-p.done:
					cancel()
					settled = true
				default:
					if settled = isQueued(lm, tx); settled {
						pending[tx] = p
					} else {
						runtime.Gosched()
					}
				}
			}
			if pending[tx] != nil && (!blocked || ref) {
				t.Fatalf("seed %d step %d: tx %d queued for %s on %s; blocked=%v deadlock=%v", seed, step, tx, mode, res, blocked, ref)
			}
			if got, want := errors.Is(err, ErrDeadlock), blocked && ref; got != want {
				t.Fatalf("seed %d step %d: tx %d requesting %s on %s returned %v, deadlock expected %v", seed, step, tx, mode, res, err, want)
			}
			if err != nil {
				st.deadlocks++
				if rng.Intn(2) == 0 { // else the victim stays live and carries on
					lm.ReleaseAll(tx)
				}
			}
		default: // commit or roll back
			lm.ReleaseAll(tx)
		}
		// Collect the parked requests this step granted or purged.
		for ptx := range pending {
			if !isQueued(lm, ptx) {
				finish(ptx)
			}
		}
	}
	for tx := uint64(1); tx <= txs; tx++ {
		lm.ReleaseAll(tx)
		if pending[tx] != nil {
			finish(tx)
		}
	}
	if ok, why := lockTableDrained(lm); !ok {
		t.Fatalf("seed %d: %s", seed, why)
	}
	return st
}
