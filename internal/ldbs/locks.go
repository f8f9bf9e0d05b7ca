package ldbs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"preserial/internal/obs"
	"preserial/internal/waitfor"
)

// LockMode is a multigranularity lock mode. Tables take intent locks (IS,
// IX) or a full shared lock for scans; rows take S or X. SIX is collapsed to
// X (conservative, still correct).
type LockMode uint8

// Lock modes, weakest to strongest.
const (
	LockIS LockMode = iota // intent shared (table, for row reads)
	LockIX                 // intent exclusive (table, for row writes)
	LockS                  // shared (row reads, table scans)
	LockX                  // exclusive (row writes, table drops)
)

// String returns the conventional name of the mode.
func (m LockMode) String() string {
	switch m {
	case LockIS:
		return "IS"
	case LockIX:
		return "IX"
	case LockS:
		return "S"
	case LockX:
		return "X"
	default:
		return fmt.Sprintf("LockMode(%d)", uint8(m))
	}
}

// lockCompat is the standard multigranularity compatibility matrix.
var lockCompat = [4][4]bool{
	LockIS: {LockIS: true, LockIX: true, LockS: true, LockX: false},
	LockIX: {LockIS: true, LockIX: true, LockS: false, LockX: false},
	LockS:  {LockIS: true, LockIX: false, LockS: true, LockX: false},
	LockX:  {LockIS: false, LockIX: false, LockS: false, LockX: false},
}

// Compatible reports whether two modes may be held simultaneously by
// different transactions.
func (m LockMode) Compatible(o LockMode) bool { return lockCompat[m][o] }

// sup returns the least mode at least as strong as both a and b.
// IX ⊔ S would be SIX, which we collapse to X.
func sup(a, b LockMode) LockMode {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case b == LockX:
		return LockX
	case a == LockIS:
		return b // IS ⊔ IX = IX, IS ⊔ S = S
	case a == LockIX && b == LockS:
		return LockX // SIX collapsed
	default:
		return b
	}
}

// ErrDeadlock is returned to a lock requester whose wait would close a cycle
// in the wait-for graph. The requester is expected to roll back.
var ErrDeadlock = errors.New("ldbs: deadlock detected")

// ErrLockTimeout is returned when the context expires while waiting.
var ErrLockTimeout = errors.New("ldbs: lock wait cancelled")

// resource identifies a lockable object: a table (Key == "") or a row.
type resource struct {
	Table string
	Key   string
}

func (r resource) String() string {
	if r.Key == "" {
		return r.Table
	}
	return r.Table + "/" + r.Key
}

// waiter is a queued lock request.
type waiter struct {
	tx      uint64
	mode    LockMode // the full target mode (held ⊔ requested for upgrades)
	upgrade bool     // tx already holds a weaker mode on the resource
	ready   chan error
}

// lockState is the per-resource lock table entry.
type lockState struct {
	holders map[uint64]LockMode
	queue   []*waiter
}

// lockManager implements strict 2PL with FIFO queues, upgrade priority and
// immediate wait-for-graph deadlock detection (the requester whose wait
// would create a cycle receives ErrDeadlock). The graph is not stored: a
// transaction's out-edges are the blockers of its queued waiters, read off
// the lock table as it stands.
type lockManager struct {
	mu     sync.Mutex
	locks  map[resource]*lockState
	held   map[uint64]map[resource]LockMode // per-tx held locks, for release
	queued map[uint64]map[*waiter]resource  // per-tx queued waiters, for release and the WFG

	// Live metrics, nil unless the DB was opened with Options.Obs.
	waits       *obs.Counter
	waitLatency *obs.Histogram
}

func newLockManager() *lockManager {
	return &lockManager{
		locks:  make(map[resource]*lockState),
		held:   make(map[uint64]map[resource]LockMode),
		queued: make(map[uint64]map[*waiter]resource),
	}
}

// wouldDeadlock reports whether tx waiting for blockers closes a cycle in
// the wait-for graph.
func (lm *lockManager) wouldDeadlock(tx uint64, blockers []uint64) bool {
	return waitfor.Closes(tx, blockers, lm.outEdgesLocked)
}

// outEdgesLocked returns the transactions tx waits for: the blockers of each
// of its queued waiters, as the lock table stands now.
func (lm *lockManager) outEdgesLocked(tx uint64) []uint64 {
	var out []uint64
	for w, res := range lm.queued[tx] {
		out = append(out, lm.locks[res].blockersOf(w.tx, w.mode, w.upgrade, w)...)
	}
	return out
}

// blockersOf returns the transactions whose held or queued-ahead locks
// conflict with tx acquiring mode on st.
func (st *lockState) blockersOf(tx uint64, mode LockMode, upgrade bool, upTo *waiter) []uint64 {
	var out []uint64
	for h, hm := range st.holders {
		if h == tx {
			continue
		}
		if !mode.Compatible(hm) {
			out = append(out, h)
		}
	}
	if !upgrade {
		// A fresh request also queues behind earlier waiters whose target
		// mode conflicts with it (FIFO fairness), so those are blockers too.
		for _, w := range st.queue {
			if w == upTo {
				break
			}
			if w.tx != tx && !mode.Compatible(w.mode) {
				out = append(out, w.tx)
			}
		}
	}
	return out
}

// grantable reports whether the waiter can be granted right now.
func (st *lockState) grantable(w *waiter) bool {
	for h, hm := range st.holders {
		if h == w.tx {
			continue
		}
		if !w.mode.Compatible(hm) {
			return false
		}
	}
	if w.upgrade {
		return true // upgrades bypass the queue
	}
	for _, q := range st.queue {
		if q == w {
			break
		}
		if q.tx != w.tx && !w.mode.Compatible(q.mode) {
			return false
		}
	}
	return true
}

// Acquire obtains mode on res for tx, blocking until granted, deadlock, or
// context cancellation. Re-acquiring a held mode (or weaker) is a no-op;
// stronger requests upgrade.
func (lm *lockManager) Acquire(ctx context.Context, tx uint64, res resource, mode LockMode) error {
	lm.mu.Lock()
	st := lm.locks[res]
	if st == nil {
		st = &lockState{holders: make(map[uint64]LockMode)}
		lm.locks[res] = st
	}
	cur, holding := st.holders[tx]
	want := mode
	if holding {
		want = sup(cur, mode)
		if want == cur {
			lm.mu.Unlock()
			return nil // already strong enough
		}
	}

	// grantable on a not-yet-queued waiter checks the holders and, for fresh
	// requests, the whole queue (FIFO fairness: a newcomer never overtakes a
	// conflicting waiter).
	w := &waiter{tx: tx, mode: want, upgrade: holding, ready: make(chan error, 1)}
	if st.grantable(w) {
		lm.grantLocked(st, res, tx, want)
		lm.mu.Unlock()
		return nil
	}

	blockers := st.blockersOf(tx, want, holding, nil)
	if lm.wouldDeadlock(tx, blockers) {
		lm.mu.Unlock()
		return fmt.Errorf("%w: tx %d requesting %s on %s", ErrDeadlock, tx, want, res)
	}
	if holding {
		// Upgrades go to the front so they are examined before fresh
		// requests when locks free up.
		st.queue = append([]*waiter{w}, st.queue...)
	} else {
		st.queue = append(st.queue, w)
	}
	lm.indexWaiterLocked(w, res)
	lm.mu.Unlock()

	var waitStart time.Time
	if lm.waits != nil {
		lm.waits.Inc()
		waitStart = time.Now()
	}
	select {
	case err := <-w.ready:
		if lm.waitLatency != nil {
			lm.waitLatency.Observe(time.Since(waitStart))
		}
		return err
	case <-ctx.Done():
		lm.mu.Lock()
		// The grant may have raced with cancellation; prefer the grant.
		select {
		case err := <-w.ready:
			lm.mu.Unlock()
			return err
		default:
		}
		lm.removeWaiterLocked(st, res, w)
		lm.mu.Unlock()
		return fmt.Errorf("%w: tx %d on %s: %v", ErrLockTimeout, tx, res, ctx.Err())
	}
}

// grantLocked records the grant. Caller holds lm.mu.
func (lm *lockManager) grantLocked(st *lockState, res resource, tx uint64, mode LockMode) {
	st.holders[tx] = mode
	h := lm.held[tx]
	if h == nil {
		h = make(map[resource]LockMode)
		lm.held[tx] = h
	}
	h[res] = mode
}

// indexWaiterLocked records w in the per-tx queued index so ReleaseAll can
// find it even on resources the transaction holds nothing on.
func (lm *lockManager) indexWaiterLocked(w *waiter, res resource) {
	q := lm.queued[w.tx]
	if q == nil {
		q = make(map[*waiter]resource)
		lm.queued[w.tx] = q
	}
	q[w] = res
}

// unindexWaiterLocked removes w from the per-tx queued index.
func (lm *lockManager) unindexWaiterLocked(w *waiter) {
	if q := lm.queued[w.tx]; q != nil {
		delete(q, w)
		if len(q) == 0 {
			delete(lm.queued, w.tx)
		}
	}
}

// removeWaiterLocked deletes w from the queue.
func (lm *lockManager) removeWaiterLocked(st *lockState, res resource, w *waiter) {
	for i, q := range st.queue {
		if q == w {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			break
		}
	}
	lm.unindexWaiterLocked(w)
	lm.dispatchLocked(st, res)
}

// dispatchLocked grants every queue entry that has become grantable, in
// order (upgrades first since they sit at the front).
func (lm *lockManager) dispatchLocked(st *lockState, res resource) {
	changed := true
	for changed {
		changed = false
		for _, w := range st.queue {
			if st.grantable(w) {
				lm.grantLocked(st, res, w.tx, w.mode)
				lm.unindexWaiterLocked(w)
				// Remove from queue.
				for i, q := range st.queue {
					if q == w {
						st.queue = append(st.queue[:i], st.queue[i+1:]...)
						break
					}
				}
				w.ready <- nil
				changed = true
				break
			}
		}
	}
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(lm.locks, res)
	}
}

// ReleaseAll releases every lock tx holds and removes it from every queue
// (used at commit and rollback — strict 2PL releases everything at once).
// Queued requests are purged via the per-tx waiter index, which covers waits
// on resources tx holds nothing on: without that, a rollback racing a blocked
// Acquire leaves the waiter in the queue and a later dispatch grants a lock
// to the already-finished transaction — a permanent leak.
func (lm *lockManager) ReleaseAll(tx uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	touched := make(map[resource]bool)
	// First purge every queued request by tx (cancelled upgrades AND fresh
	// waits on unheld resources), without dispatching yet: a dispatch here
	// could grant another of tx's still-indexed waiters mid-purge.
	for w, res := range lm.queued[tx] {
		st := lm.locks[res]
		if st == nil {
			continue
		}
		for i, q := range st.queue {
			if q == w {
				st.queue = append(st.queue[:i], st.queue[i+1:]...)
				break
			}
		}
		w.ready <- fmt.Errorf("%w: transaction %d released", ErrLockTimeout, tx)
		touched[res] = true
	}
	delete(lm.queued, tx)
	// With tx out of every queue, a dispatch can only grant other
	// transactions' waiters, so each held resource is dispatched as it is
	// released rather than collected first (a bulk transaction holds one
	// lock per row it wrote).
	for res := range lm.held[tx] {
		if st := lm.locks[res]; st != nil {
			delete(st.holders, tx)
			lm.dispatchLocked(st, res)
		}
	}
	delete(lm.held, tx)
	for res := range touched {
		if st := lm.locks[res]; st != nil {
			lm.dispatchLocked(st, res)
		}
	}
}

// HeldLocks returns a snapshot of the locks tx holds (diagnostics/tests).
func (lm *lockManager) HeldLocks(tx uint64) map[string]LockMode {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	out := make(map[string]LockMode, len(lm.held[tx]))
	for res, m := range lm.held[tx] {
		out[res.String()] = m
	}
	return out
}
