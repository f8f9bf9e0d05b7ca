package ldbs

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// waitQueuedWaiter blocks until tx has a waiter queued on res (or fails the
// test). It inspects only the public lock-table shape so the test compiles
// against pre-fix code too.
func waitQueuedWaiter(t *testing.T, lm *lockManager, res resource, tx uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		lm.mu.Lock()
		found := false
		if st := lm.locks[res]; st != nil {
			for _, w := range st.queue {
				if w.tx == tx {
					found = true
				}
			}
		}
		lm.mu.Unlock()
		if found {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tx %d never queued on %s", tx, res)
}

// lockTableDrained reports whether the lock manager holds no state at all.
func lockTableDrained(lm *lockManager) (bool, string) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	switch {
	case len(lm.locks) != 0:
		return false, "lock states remain"
	case len(lm.held) != 0:
		return false, "held index remains"
	case len(lm.queued) != 0:
		return false, "queued index remains"
	}
	return true, ""
}

// TestReleaseAllPurgesWaitsOnUnheldResources is the regression test for the
// grant/cancel race around ReleaseAll: a transaction blocked acquiring a
// resource it holds nothing on is rolled back from another goroutine
// (watchdog-style). Pre-fix, ReleaseAll only scanned the queues of resources
// in lm.held[tx], so the waiter survived and a later release granted the
// lock to the finished transaction — permanently leaked.
func TestReleaseAllPurgesWaitsOnUnheldResources(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(ctx, 1, res, LockX); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(ctx, 2, res, LockX) }()
	waitQueuedWaiter(t, lm, res, 2)

	// tx2 rolls back while its request is still queued. It holds nothing,
	// so pre-fix this was a no-op for the queue entry.
	lm.ReleaseAll(2)
	// tx1's release must NOT grant the stale waiter.
	lm.ReleaseAll(1)

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Acquire returned nil after ReleaseAll: lock granted to a finished transaction")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("purged waiter never signalled")
	}
	if got := lm.HeldLocks(2); len(got) != 0 {
		t.Fatalf("finished tx 2 holds locks: %v", got)
	}
	if ok, why := lockTableDrained(lm); !ok {
		t.Fatalf("lock table not drained: %s", why)
	}
}

// TestReleaseAllRacesBlockedAcquireHammer hammers ReleaseAll against blocked
// Acquires across goroutines under -race: every round parks a waiter behind
// a holder, releases the waiter's transaction first, then the holder's, and
// asserts the waiter was refused. Any leak leaves the table non-empty.
func TestReleaseAllRacesBlockedAcquireHammer(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	const rounds = 200
	const lanes = 4
	var wg sync.WaitGroup
	errs := make(chan string, rounds*lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			res := resource{Table: "T", Key: string(rune('a' + lane))}
			for i := 0; i < rounds; i++ {
				holder := uint64(1000*lane + 2*i + 1)
				blocked := holder + 1
				if err := lm.Acquire(ctx, holder, res, LockX); err != nil {
					errs <- "holder acquire: " + err.Error()
					return
				}
				got := make(chan error, 1)
				go func() { got <- lm.Acquire(ctx, blocked, res, LockX) }()
				waitQueuedWaiter(t, lm, res, blocked)
				lm.ReleaseAll(blocked)
				lm.ReleaseAll(holder)
				if err := <-got; err == nil {
					errs <- "blocked acquire granted after its ReleaseAll"
					lm.ReleaseAll(blocked)
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ok, why := lockTableDrained(lm); !ok {
		t.Fatalf("lock table not drained after hammer: %s", why)
	}
}

// TestGrantCancelHammer races grants against context cancellation (the
// "prefer the grant" path): short random deadlines against a churning
// holder. Whenever Acquire returns nil the lock must actually be owned;
// whatever it returns, the table must drain completely afterwards.
func TestGrantCancelHammer(t *testing.T) {
	lm := newLockManager()
	const workers = 8
	const iters = 150
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			res := resource{Table: "T", Key: string(rune('a' + g%3))}
			for i := 0; i < iters; i++ {
				tx := uint64(10000*(g+1) + i)
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(500))*time.Microsecond)
				err := lm.Acquire(ctx, tx, res, LockX)
				cancel()
				if err == nil {
					if got := lm.HeldLocks(tx); got["T/"+res.Key] != LockX {
						errs <- "Acquire returned nil but lock not held"
					}
				}
				lm.ReleaseAll(tx)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if ok, why := lockTableDrained(lm); !ok {
		t.Fatalf("lock table not drained after hammer: %s", why)
	}
}
