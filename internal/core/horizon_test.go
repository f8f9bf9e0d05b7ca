package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"preserial/internal/obs"
	"preserial/internal/sem"
)

// virtualManager is a manager over a MemStore (no executor: a commit has
// published by the time RequestCommit returns) with n atomic integer
// objects o0..o<n-1>.
func virtualManager(tb testing.TB, n int, opt ...Option) *Manager {
	tb.Helper()
	store := NewMemStore()
	m := NewManager(store, opt...)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("o%d", i)
		ref := StoreRef{Table: "T", Key: id, Column: "v"}
		store.Seed(ref, sem.Int(1_000_000))
		if err := m.RegisterAtomicObject(ObjectID(id), ref); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// commitOn runs one whole transaction of class op on obj.
func commitOn(tb testing.TB, m *Manager, id TxID, obj ObjectID, op sem.Op) {
	tb.Helper()
	if err := m.Begin(id); err != nil {
		tb.Fatal(err)
	}
	if granted, err := m.Invoke(id, obj, op); err != nil || !granted {
		tb.Fatalf("Invoke(%s, %s) = %v, %v", id, obj, granted, err)
	}
	if op.Class.IsUpdate() {
		if err := m.Apply(id, obj, sem.Int(1)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.RequestCommit(id); err != nil {
		tb.Fatal(err)
	}
	if st, err := m.TxState(id); err != nil || st != StateCommitted {
		tb.Fatalf("%s ended %v, %v; want Committed", id, st, err)
	}
}

// TestFrozenClockSleepConflict: history is pruned and awake validation
// decides by commit sequence alone. On a clock that never moves, the commit
// that precedes the sleep and the N incompatible ones that follow it carry
// the same timestamp; the sleeper must still abort, and the record from
// before its sleep must not be what aborts it.
func TestFrozenClockSleepConflict(t *testing.T) {
	m, _, _ := testManager(t) // clock.Manual: frozen unless advanced
	commitOn(t, m, "before", "X", assignOp)

	mustBegin(t, m, "S")
	mustInvoke(t, m, "S", "X", addOp)
	if err := m.Sleep("S"); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, "R")
	mustInvoke(t, m, "R", "X", addOp)
	if err := m.Sleep("R"); err != nil {
		t.Fatal(err)
	}
	// Compatible commits after the sleep, same instant: harmless to both.
	for i := 0; i < 3; i++ {
		commitOn(t, m, TxID(fmt.Sprintf("c%d", i)), "X", addOp)
	}
	if resumed, err := m.Awake("R"); err != nil || !resumed {
		t.Fatalf("Awake(R) = %v, %v: only compatible operations committed during its sleep", resumed, err)
	}
	if err := m.Abort("R"); err != nil {
		t.Fatal(err)
	}
	// N incompatible commits, same instant.
	for i := 0; i < 5; i++ {
		commitOn(t, m, TxID(fmt.Sprintf("w%d", i)), "X", assignOp)
	}
	info, err := m.ObjectInfo("X")
	if err != nil {
		t.Fatal(err)
	}
	if info.Committed != 8 {
		t.Fatalf("X retains %d history records, want the 8 committed since S went to sleep", info.Committed)
	}
	if resumed, err := m.Awake("S"); err != nil || resumed {
		t.Fatalf("Awake(S) = %v, %v: incompatible operations committed during its sleep", resumed, err)
	}
	// With the last sleeper gone the next publish prunes to the head.
	commitOn(t, m, "after", "X", addOp)
	if info, _ := m.ObjectInfo("X"); info.Committed != 0 {
		t.Fatalf("X retains %d history records with nobody asleep", info.Committed)
	}
}

// TestPublishCostFlat: the GC horizon is read off the front of the sleeper
// arrival queue and pruning follows the horizon queue, so a commit costs
// the same beside 10 sleepers as beside 100 000, and among 1 024 registered
// objects as among 65 536. (With the per-publish scans of sleepers, objects
// and chains, the larger figure of each pair was two to three orders of
// magnitude above the smaller.)
func TestPublishCostFlat(t *testing.T) {
	perCommit := func(objects, sleepers int) time.Duration {
		m := virtualManager(t, objects)
		for i := 0; i < sleepers; i++ {
			id := TxID(fmt.Sprintf("s%d", i))
			mustBegin(t, m, id)
			if err := m.Sleep(id); err != nil {
				t.Fatal(err)
			}
		}
		const commits = 2000
		best := time.Duration(1 << 62)
		for round := 0; round < 3; round++ {
			start := time.Now()
			for i := 0; i < commits; i++ {
				id := TxID(fmt.Sprintf("c%d-%d", round, i))
				commitOn(t, m, id, ObjectID(fmt.Sprintf("o%d", i%objects)), addOp)
				if err := m.Forget(id); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start)/commits)
		}
		return best
	}
	flat := func(what string, small, large time.Duration) {
		t.Logf("per commit: %v vs %v (%s)", small, large, what)
		if large > 4*small+2*time.Microsecond {
			t.Errorf("commit cost grows with the %s: %v vs %v", what, small, large)
		}
	}
	flat("sleeper count, 10 vs 100000", perCommit(2, 10), perCommit(2, 100_000))
	flat("object count, 1024 vs 65536", perCommit(1<<10, 0), perCommit(1<<16, 0))
}

// TestGCDrainBounded: when a long sleeper's wake-up makes a large backlog
// due at once, each publish retires a bounded batch of it, and the backlog
// is gone a bounded number of commits later.
func TestGCDrainBounded(t *testing.T) {
	reg := obs.NewRegistry()
	m := virtualManager(t, 2, WithObservability(NewObservability(reg, 0)))
	mustBegin(t, m, "S")
	mustInvoke(t, m, "S", "o0", addOp)
	if err := m.Sleep("S"); err != nil {
		t.Fatal(err)
	}
	const backlog = 1000
	for i := 0; i < backlog; i++ {
		commitOn(t, m, TxID(fmt.Sprintf("c%d", i)), "o1", addOp)
	}
	depth := func() int { return int(reg.Snapshot()[obs.NameGCQueueDepth]) }
	if depth() != backlog {
		t.Fatalf("queue depth %d behind a sleeper, want %d", depth(), backlog)
	}
	if lag := reg.Snapshot()[obs.NameMVCCGCHorizonLag]; lag != backlog {
		t.Fatalf("horizon lag %d, want %d", lag, backlog)
	}
	if resumed, err := m.Awake("S"); err != nil || !resumed {
		t.Fatalf("Awake = %v, %v", resumed, err)
	}
	perPublish := gcBatch + 2 // one entry pushed, so budget gcBatch+2
	for n := 1; depth() > 0; n++ {
		before := depth()
		commitOn(t, m, TxID(fmt.Sprintf("d%d", n)), "o1", addOp)
		if retired := before + 1 - depth(); retired > perPublish {
			t.Fatalf("publish %d retired %d queue entries, bound is %d", n, retired, perPublish)
		}
		if n > 2*backlog/gcBatch {
			t.Fatalf("backlog of %d not worked off after %d commits (depth %d)", backlog, n, depth())
		}
	}
	if info, _ := m.ObjectInfo("o1"); info.Committed != 0 {
		t.Fatalf("o1 retains %d history records after the drain", info.Committed)
	}
}

// TestLazyArrivalListsStayBounded: sleepers and snapshots leave their
// arrival queues lazily, at the front — so an entry that never leaves (a
// long sleeper, a forgotten snapshot) must not let the churn behind it
// accumulate.
func TestLazyArrivalListsStayBounded(t *testing.T) {
	m := virtualManager(t, 1)
	mustBegin(t, m, "long")
	mustInvoke(t, m, "long", "o0", addOp)
	if err := m.Sleep("long"); err != nil {
		t.Fatal(err)
	}
	pinned := m.BeginSnapshot()
	defer pinned.Close()

	mustBegin(t, m, "napper")
	mustInvoke(t, m, "napper", "o0", addOp)
	for i := 0; i < 10_000; i++ {
		if err := m.Sleep("napper"); err != nil {
			t.Fatal(err)
		}
		if resumed, err := m.Awake("napper"); err != nil || !resumed {
			t.Fatalf("Awake = %v, %v", resumed, err)
		}
		if _, err := m.SnapshotRead("o0", ""); err != nil {
			t.Fatal(err)
		}
	}
	defer m.mon.enter(m)()
	if n := m.sleepQ.len(); n > 2+2*lazySweepSlack {
		t.Fatalf("sleeper queue holds %d entries for 1 sleeper", n)
	}
	if n := m.mvcc.snapQ.len(); n > 2+2*lazySweepSlack {
		t.Fatalf("snapshot queue holds %d entries for 1 open snapshot", n)
	}
	if got := m.oldestSleepSeqLocked(); got != 0 {
		t.Fatalf("oldest sleeper pins %d, want 0", got)
	}
}

// TestTerminalRetentionBounded: a caller that never Forgets leaves at most
// terminalRetention terminal transactions behind, on a heap that stops
// growing; a retired id answers exactly as a forgotten one.
func TestTerminalRetentionBounded(t *testing.T) {
	reg := obs.NewRegistry()
	m := virtualManager(t, 1, WithObservability(NewObservability(reg, 0)))
	heapAfter := func(from, to int) uint64 {
		for i := from; i < to; i++ {
			commitOn(t, m, TxID(fmt.Sprintf("t%d", i)), "o0", addOp)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = terminalRetention
	h1 := heapAfter(0, n)
	h2 := heapAfter(n, 2*n)
	h3 := heapAfter(2*n, 3*n)
	if got := len(m.Transactions()); got > n {
		t.Fatalf("%d transactions registered after %d commits without Forget, bound is %d", got, 3*n, n)
	}
	if got := reg.Snapshot()[obs.NameTerminalRetained]; got != n {
		t.Fatalf("%s = %d, want %d", obs.NameTerminalRetained, got, n)
	}
	// The first n commits build the retained set up; after that every
	// commit retires one, so the heap must be level (a per-transaction leak
	// of even 100 B would add 1.6 MB per round).
	t.Logf("heap after %d / %d / %d commits: %d / %d / %d KiB", n, 2*n, 3*n, h1>>10, h2>>10, h3>>10)
	if h3 > h2+512<<10 {
		t.Fatalf("heap grew from %d to %d bytes over %d commits at the retention bound", h2, h3, n)
	}

	if _, err := m.TxState("t0"); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("TxState of a retired transaction = %v, want ErrUnknownTx", err)
	}
	if err := m.Forget("t0"); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("Forget of a retired transaction = %v, want ErrUnknownTx", err)
	}
	mustBegin(t, m, "t0") // a retired id is free again

	// A forgotten id that is reused must not be retired through the stale
	// queue entry of its first life.
	last := TxID(fmt.Sprintf("t%d", 3*n-1))
	if err := m.Forget(last); err != nil {
		t.Fatal(err)
	}
	mustBegin(t, m, last)
	heapAfter(3*n, 4*n+1)
	mustState(t, m, last, StateActive)
}

// TestIdleObjectFootprint guards what one registered, untouched atomic
// object costs: the object, its one member, and its entries in the two
// registries.
func TestIdleObjectFootprint(t *testing.T) {
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewManager(nil)
	registerSeats(t, m, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perObject := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.0f B per idle atomic object", perObject)
	if perObject > 512 {
		t.Fatalf("an idle atomic object costs %.0f B, budget is 512 B", perObject)
	}
	runtime.KeepAlive(m)
}

// registerSeats registers n atomic objects named the way a deployment names
// them ("Table/key" over a table/key/column ref); the id and key strings
// are the manager's to keep, so they count towards its footprint.
func registerSeats(tb testing.TB, m *Manager, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%05d", i)
		ref := StoreRef{Table: "Seats", Key: key, Column: "Free"}
		if err := m.RegisterAtomicObject(ObjectID("Seats/"+key), ref); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestHistoryAcrossChunks: the WithHistory log is chunked; History still
// returns every entry in commit order.
func TestHistoryAcrossChunks(t *testing.T) {
	m := virtualManager(t, 1, WithHistory())
	const n = 2*historyChunk + 7
	for i := 0; i < n; i++ {
		commitOn(t, m, TxID(fmt.Sprintf("t%d", i)), "o0", addOp)
	}
	h := m.History()
	if len(h) != n {
		t.Fatalf("History has %d entries, want %d", len(h), n)
	}
	for i, e := range h {
		if want := TxID(fmt.Sprintf("t%d", i)); e.Tx != want {
			t.Fatalf("History[%d] is %s, want %s", i, e.Tx, want)
		}
	}
}

// TestHistoryRetentionBounded: the WithHistory log keeps the newest
// historyRetention entries on a heap that stops growing, however many
// operations commit.
func TestHistoryRetentionBounded(t *testing.T) {
	m := virtualManager(t, 1, WithHistory())
	heapAfter := func(from, to int) uint64 {
		for i := from; i < to; i++ {
			commitOn(t, m, TxID(fmt.Sprintf("t%d", i)), "o0", addOp)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n = historyRetention
	h1 := heapAfter(0, n)
	h2 := heapAfter(n, 2*n)
	h3 := heapAfter(2*n, 3*n)
	h := m.History()
	if len(h) > n || len(h) <= n-historyChunk {
		t.Fatalf("History has %d entries after %d commits, want within one chunk below %d", len(h), 3*n, n)
	}
	for i, e := range h {
		if want := TxID(fmt.Sprintf("t%d", 3*n-len(h)+i)); e.Tx != want {
			t.Fatalf("History[%d] is %s, want %s", i, e.Tx, want)
		}
	}
	// An unbounded log adds ~190 B per entry, 12 MB per round.
	t.Logf("heap after %d / %d / %d commits: %d / %d / %d KiB", n, 2*n, 3*n, h1>>10, h2>>10, h3>>10)
	if h3 > h2+4<<20 {
		t.Fatalf("heap grew from %d to %d bytes over %d commits at the retention bound", h2, h3, n)
	}
}

func TestFifo(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3*round+1; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 2*round+1 && q.len() > 0; i++ {
			if got := q.front(); got != want {
				t.Fatalf("front = %d, want %d", got, want)
			}
			q.pop()
			want++
		}
	}
	q.filter(func(v int) bool { return v%2 == 0 })
	for q.len() > 0 {
		if want%2 != 0 {
			want++
		}
		if got := q.front(); got != want {
			t.Fatalf("after filter front = %d, want %d", got, want)
		}
		q.pop()
		want++
	}
	if want < next-1 {
		t.Fatalf("queue ran dry at %d of %d", want, next)
	}

	// A burst's buffer is released once the queue empties.
	for i := 0; i < 4*fifoKeep; i++ {
		q.push(i)
	}
	for q.len() > 0 {
		q.pop()
	}
	if q.buf != nil {
		t.Fatalf("an emptied queue kept a buffer of %d", len(q.buf))
	}
}

// TestObjIndex: the registry finds every registered object and nothing
// else, also for readers racing its growth.
func TestObjIndex(t *testing.T) {
	ix := newObjIndex()
	const n = 5000
	name := func(i int) ObjectID { return ObjectID(fmt.Sprintf("obj-%d", i)) }
	registered := make(chan int) // closed when all n are in
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seen := 0; ; {
			select {
			case <-registered:
				return
			default:
			}
			// Objects are registered in index order, so finding i implies
			// every j < i is findable too.
			for seen < n && ix.get(name(seen)) != nil {
				seen++
			}
			if seen > 0 && ix.get(name(seen-1)) == nil {
				t.Errorf("object %d vanished", seen-1)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		ix.put(&object{id: name(i)})
	}
	close(registered)
	<-done
	for i := 0; i < n; i++ {
		if o := ix.get(name(i)); o == nil || o.id != name(i) {
			t.Fatalf("get(%s) = %v", name(i), o)
		}
	}
	if o := ix.get("never-registered"); o != nil {
		t.Fatalf("get of an unregistered id = %s", o.id)
	}
	if len(ix.all) != n || ix.all[n-1].id != name(n-1) {
		t.Fatalf("registration order lost: %d objects", len(ix.all))
	}
}
