package ldbs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLockModeCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b LockMode
		want bool
	}{
		{LockIS, LockIS, true}, {LockIS, LockIX, true}, {LockIS, LockS, true}, {LockIS, LockX, false},
		{LockIX, LockIX, true}, {LockIX, LockS, false}, {LockIX, LockX, false},
		{LockS, LockS, true}, {LockS, LockX, false},
		{LockX, LockX, false},
	}
	for _, c := range cases {
		if got := c.a.Compatible(c.b); got != c.want {
			t.Errorf("%s vs %s = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Compatible(c.a); got != c.want {
			t.Errorf("%s vs %s = %v (symmetry)", c.b, c.a, got)
		}
	}
}

func TestLockModeSup(t *testing.T) {
	cases := []struct{ a, b, want LockMode }{
		{LockIS, LockIS, LockIS},
		{LockIS, LockIX, LockIX},
		{LockIS, LockS, LockS},
		{LockIS, LockX, LockX},
		{LockIX, LockS, LockX}, // SIX collapsed to X
		{LockS, LockX, LockX},
		{LockIX, LockX, LockX},
	}
	for _, c := range cases {
		if got := sup(c.a, c.b); got != c.want {
			t.Errorf("sup(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := sup(c.b, c.a); got != c.want {
			t.Errorf("sup(%s, %s) = %s, want %s (commutes)", c.b, c.a, got, c.want)
		}
	}
}

func TestLockModeString(t *testing.T) {
	if LockIS.String() != "IS" || LockIX.String() != "IX" || LockS.String() != "S" || LockX.String() != "X" {
		t.Error("lock mode names broken")
	}
	if LockMode(9).String() != "LockMode(9)" {
		t.Error("unknown mode name broken")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(ctx, 1, res, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 2, res, LockS); err != nil {
		t.Fatal(err)
	}
	if got := lm.HeldLocks(2)["T/k"]; got != LockS {
		t.Errorf("held = %v", lm.HeldLocks(2))
	}
}

func TestExclusiveBlocksAndReleases(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(ctx, 1, res, LockX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(ctx, 2, res, LockX) }()
	select {
	case err := <-got:
		t.Fatalf("second X acquired immediately: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not granted after release")
	}
}

func TestReacquireAndUpgradeNoop(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(ctx, 1, res, LockX); err != nil {
		t.Fatal(err)
	}
	// Weaker and equal re-requests are no-ops.
	if err := lm.Acquire(ctx, 1, res, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 1, res, LockX); err != nil {
		t.Fatal(err)
	}
	if got := lm.HeldLocks(1)["T/k"]; got != LockX {
		t.Errorf("mode = %s, want X", got)
	}
}

func TestUpgradeWaitsForOtherReader(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(ctx, 1, res, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 2, res, LockS); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(ctx, 1, res, LockX) }()
	select {
	case err := <-done:
		t.Fatalf("upgrade with a second reader present must wait, got %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := lm.HeldLocks(1)["T/k"]; got != LockX {
		t.Errorf("after upgrade, mode = %s", got)
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(ctx, 1, res, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 2, res, LockS); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- lm.Acquire(ctx, 1, res, LockX) }()
	time.Sleep(20 * time.Millisecond) // let tx1's upgrade enqueue
	// tx2's upgrade now closes the cycle and must be refused immediately.
	err := lm.Acquire(ctx, 2, res, LockX)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrade = %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

func TestCrossResourceDeadlock(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	ra := resource{Table: "T", Key: "a"}
	rb := resource{Table: "T", Key: "b"}
	if err := lm.Acquire(ctx, 1, ra, LockX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 2, rb, LockX); err != nil {
		t.Fatal(err)
	}
	block := make(chan error, 1)
	go func() { block <- lm.Acquire(ctx, 1, rb, LockX) }()
	time.Sleep(20 * time.Millisecond)
	err := lm.Acquire(ctx, 2, ra, LockX) // closes 2→1→2
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(2)
	if err := <-block; err != nil {
		t.Fatal(err)
	}
}

// TestNoFalseDeadlockAfterCancelledWaiter: a waiter queued behind a request
// that is later cancelled no longer waits for it. tx3 queues S on r1 behind
// tx2's X request; tx2 cancels, so tx3 waits only for tx1. When tx2, still
// live, then waits for tx3, the graph is tx2→tx3→tx1: no cycle.
func TestNoFalseDeadlockAfterCancelledWaiter(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	r1 := resource{Table: "T", Key: "r1"}
	r2 := resource{Table: "T", Key: "r2"}
	if err := lm.Acquire(ctx, 1, r1, LockX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 3, r2, LockX); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	tx2 := make(chan error, 1)
	go func() { tx2 <- lm.Acquire(cctx, 2, r1, LockX) }()
	waitQueuedWaiter(t, lm, r1, 2)
	tx3 := make(chan error, 1)
	go func() { tx3 <- lm.Acquire(ctx, 3, r1, LockS) }()
	waitQueuedWaiter(t, lm, r1, 3)
	cancel()
	if err := <-tx2; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("cancelled wait = %v, want ErrLockTimeout", err)
	}

	wctx, wcancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer wcancel()
	if err := lm.Acquire(wctx, 2, r2, LockS); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("tx2 waiting for tx3 = %v, want a plain wait (ErrLockTimeout)", err)
	}
	lm.ReleaseAll(1)
	if err := <-tx3; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	lm.ReleaseAll(3)
	if ok, why := lockTableDrained(lm); !ok {
		t.Fatal(why)
	}
}

// TestDeadlockThroughEdgeGainedAfterQueueing: a waiter's blockers change
// while it waits. W queues S on r1 behind P's X request while H holds S;
// H then upgrades to X and P cancels, so W now waits for H. H asking for
// r2, which W holds, closes W→H→W.
func TestDeadlockThroughEdgeGainedAfterQueueing(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	r1 := resource{Table: "T", Key: "r1"}
	r2 := resource{Table: "T", Key: "r2"}
	const h, w, p = 1, 2, 3
	if err := lm.Acquire(ctx, h, r1, LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, w, r2, LockX); err != nil {
		t.Fatal(err)
	}
	pctx, cancel := context.WithCancel(ctx)
	pDone := make(chan error, 1)
	go func() { pDone <- lm.Acquire(pctx, p, r1, LockX) }()
	waitQueuedWaiter(t, lm, r1, p)
	wDone := make(chan error, 1)
	go func() { wDone <- lm.Acquire(ctx, w, r1, LockS) }()
	waitQueuedWaiter(t, lm, r1, w)
	if err := lm.Acquire(ctx, h, r1, LockX); err != nil {
		t.Fatalf("sole-holder upgrade: %v", err)
	}
	cancel()
	if err := <-pDone; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("cancelled wait = %v, want ErrLockTimeout", err)
	}

	hctx, hcancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer hcancel()
	if err := lm.Acquire(hctx, h, r2, LockS); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("H waiting for W = %v, want ErrDeadlock", err)
	}
	lm.ReleaseAll(h)
	if err := <-wDone; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(w)
	if ok, why := lockTableDrained(lm); !ok {
		t.Fatal(why)
	}
}

func TestContextCancelWhileWaiting(t *testing.T) {
	lm := newLockManager()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(context.Background(), 1, res, LockX); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := lm.Acquire(ctx, 2, res, LockX)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("got %v, want ErrLockTimeout", err)
	}
	// The queue entry must be gone: releasing tx1 leaves the lock free.
	lm.ReleaseAll(1)
	if err := lm.Acquire(context.Background(), 3, res, LockX); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOFairnessNoOvertake(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	res := resource{Table: "T", Key: "k"}
	if err := lm.Acquire(ctx, 1, res, LockS); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() { writerDone <- lm.Acquire(ctx, 2, res, LockX) }()
	time.Sleep(20 * time.Millisecond)
	// A new shared request must queue behind the writer, not overtake it.
	readerDone := make(chan error, 1)
	go func() { readerDone <- lm.Acquire(ctx, 3, res, LockS) }()
	select {
	case <-readerDone:
		t.Fatal("reader overtook a queued writer")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
}

func TestIntentLocksCoexistWithRowLocks(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	table := resource{Table: "T"}
	if err := lm.Acquire(ctx, 1, table, LockIX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(ctx, 2, table, LockIS); err != nil {
		t.Fatal(err)
	}
	// A table scan (S) conflicts with IX and must wait.
	scan := make(chan error, 1)
	go func() { scan <- lm.Acquire(ctx, 3, table, LockS) }()
	select {
	case <-scan:
		t.Fatal("table S granted alongside IX")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-scan; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStress(t *testing.T) {
	lm := newLockManager()
	ctx := context.Background()
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	var deadlocks int64
	var mu sync.Mutex
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := id*10000 + uint64(i)
				ra := resource{Table: "T", Key: string(rune('a' + int(tx%5)))}
				rb := resource{Table: "T", Key: string(rune('a' + int((tx+1)%5)))}
				mode := LockS
				if tx%3 == 0 {
					mode = LockX
				}
				err1 := lm.Acquire(ctx, tx, ra, mode)
				var err2 error
				if err1 == nil {
					err2 = lm.Acquire(ctx, tx, rb, mode)
				}
				if errors.Is(err1, ErrDeadlock) || errors.Is(err2, ErrDeadlock) {
					mu.Lock()
					deadlocks++
					mu.Unlock()
				}
				lm.ReleaseAll(tx)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	// All locks must be free at the end.
	if err := lm.Acquire(ctx, 999999, resource{Table: "T", Key: "a"}, LockX); err != nil {
		t.Fatalf("lock table not clean after stress: %v", err)
	}
}
