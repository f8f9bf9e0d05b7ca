package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"preserial/internal/obs"
	"preserial/internal/sem"
)

// recordingStore captures the write order of every SST it applies.
type recordingStore struct {
	mu     sync.Mutex
	inner  *MemStore
	orders [][]StoreRef
}

func (s *recordingStore) Load(ref StoreRef) (sem.Value, error) { return s.inner.Load(ref) }

func (s *recordingStore) ApplySST(writes []SSTWrite) error {
	refs := make([]StoreRef, len(writes))
	for i, w := range writes {
		refs[i] = w.Ref
	}
	s.mu.Lock()
	s.orders = append(s.orders, refs)
	s.mu.Unlock()
	return s.inner.ApplySST(writes)
}

// TestSSTWritesSorted is the regression test for the nondeterministic SST
// write order: globalCommit used to range over the commitHeld map, so two
// concurrent SSTs could acquire LDBS row locks in opposite orders and
// deadlock. Writes must arrive at the store in canonical StoreRef order.
func TestSSTWritesSorted(t *testing.T) {
	store := &recordingStore{inner: NewMemStore()}
	m := NewManager(store)
	const objs = 12
	for i := 0; i < objs; i++ {
		id := ObjectID(fmt.Sprintf("O%02d", i))
		ref := StoreRef{Table: "T", Key: fmt.Sprintf("K%02d", objs-1-i), Column: "v"}
		store.inner.Seed(ref, sem.Int(0))
		if err := m.RegisterAtomicObject(id, ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Begin("A"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objs; i++ {
		id := ObjectID(fmt.Sprintf("O%02d", i))
		if granted, err := m.Invoke("A", id, sem.Op{Class: sem.AddSub}); err != nil || !granted {
			t.Fatalf("invoke %s: granted=%v err=%v", id, granted, err)
		}
		if err := m.Apply("A", id, sem.Int(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.TxState("A"); st != StateCommitted {
		t.Fatalf("state = %s, want Committed", st)
	}
	if len(store.orders) != 1 {
		t.Fatalf("SSTs = %d, want 1", len(store.orders))
	}
	got := store.orders[0]
	if len(got) != objs {
		t.Fatalf("writes = %d, want %d", len(got), objs)
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].less(got[i]) {
			t.Fatalf("writes not in canonical order: %s before %s", got[i-1], got[i])
		}
	}
}

// blockingStore parks every SST until released, so tests can observe what
// the committing client does while its SST is in flight.
type blockingStore struct {
	inner   *MemStore
	entered chan struct{}
	release chan struct{}
}

func (s *blockingStore) Load(ref StoreRef) (sem.Value, error) { return s.inner.Load(ref) }

func (s *blockingStore) ApplySST(writes []SSTWrite) error {
	s.entered <- struct{}{}
	<-s.release
	return s.inner.ApplySST(writes)
}

// TestRequestCommitDoesNotBlockOnSST: with an SST executor the commit
// request returns while the store round-trip (and its fsync) is still in
// flight; the outcome arrives asynchronously as EvCommitted.
func TestRequestCommitDoesNotBlockOnSST(t *testing.T) {
	store := &blockingStore{
		inner:   NewMemStore(),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	ref := StoreRef{Table: "T", Key: "K", Column: "v"}
	store.inner.Seed(ref, sem.Int(10))
	m := NewManager(store, WithSSTExecutor(2, 8))
	defer m.Close()
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		t.Fatal(err)
	}
	events := make(chan Event, 4)
	if err := m.Begin("A", WithNotify(func(ev Event) { events <- ev })); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("A", "X", sem.Op{Class: sem.AddSub}); err != nil || !granted {
		t.Fatalf("invoke: granted=%v err=%v", granted, err)
	}
	if err := m.Apply("A", "X", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}

	// The request must return with the SST still blocked in the store.
	if err := m.RequestCommit("A"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("SST never reached the store")
	}
	if st, _ := m.TxState("A"); st != StateCommitting {
		t.Fatalf("state after RequestCommit = %s, want Committing (SST in flight)", st)
	}

	close(store.release)
	select {
	case ev := <-events:
		if ev.Type != EvCommitted {
			t.Fatalf("event = %s, want committed", ev.Type)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit never completed")
	}
	if v, _ := m.Permanent("X", ""); v.Int64() != 9 {
		t.Fatalf("permanent = %s, want 9", v)
	}
}

// TestExecutorRetriesWithBackoff: transient SST failures are retried on the
// worker (with the retry counter visible in obs) and the commit still
// succeeds without the client goroutine running the loop.
func TestExecutorRetriesWithBackoff(t *testing.T) {
	store := NewMemStore()
	ref := StoreRef{Table: "T", Key: "K", Column: "v"}
	store.Seed(ref, sem.Int(5))
	store.FailNext(2)
	reg := obs.NewRegistry()
	m := NewManager(store,
		WithObservability(NewObservability(reg, 0)),
		WithSSTRetries(3, nil),
		WithSSTExecutor(1, 4),
		WithSSTBackoff(time.Microsecond, 10*time.Microsecond))
	defer m.Close()
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		t.Fatal(err)
	}
	c, err := m.BeginClient("A")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Invoke(ctx, "X", sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply("X", sem.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx); err != nil {
		t.Fatalf("commit after transient failures: %v", err)
	}
	if got := reg.Snapshot()["gtm_sst_retries_total"]; got != 2 {
		t.Fatalf("gtm_sst_retries_total = %d, want 2", got)
	}
	if v, _ := m.Permanent("X", ""); v.Int64() != 6 {
		t.Fatalf("permanent = %s, want 6", v)
	}
}

// loadFailStore fails Load for selected refs — the substrate fault behind a
// resume failure (no SST involved).
type loadFailStore struct {
	inner *MemStore
	fail  map[StoreRef]bool
}

func (s *loadFailStore) Load(ref StoreRef) (sem.Value, error) {
	if s.fail[ref] {
		return sem.Value{}, errors.New("injected load failure")
	}
	return s.inner.Load(ref)
}

func (s *loadFailStore) ApplySST(writes []SSTWrite) error { return s.inner.ApplySST(writes) }

// TestAwakeResumeFailureReason: an Awake whose phase-2 re-grant fails to
// load the permanent value used to be misreported as AbortSSTFailure even
// though no SST ran; it must carry AbortResumeFailure in TxInfo, Stats and
// the obs counters.
func TestAwakeResumeFailureReason(t *testing.T) {
	ref1 := StoreRef{Table: "T", Key: "K", Column: "m1"}
	ref2 := StoreRef{Table: "T", Key: "K", Column: "m2"}
	store := &loadFailStore{inner: NewMemStore(), fail: map[StoreRef]bool{ref2: true}}
	store.inner.Seed(ref1, sem.Int(1))
	reg := obs.NewRegistry()
	m := NewManager(store, WithObservability(NewObservability(reg, 0)))
	deps := sem.NewDependencies()
	deps.Link("m1", "m2")
	if err := m.RegisterObject("O", map[string]StoreRef{"m1": ref1, "m2": ref2}, deps); err != nil {
		t.Fatal(err)
	}

	// A holds m1 (Assign); B's Assign on the dependent m2 must queue.
	if err := m.Begin("A"); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("A", "O", sem.Op{Class: sem.Assign, Member: "m1"}); err != nil || !granted {
		t.Fatalf("invoke A: granted=%v err=%v", granted, err)
	}
	if err := m.Begin("B"); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("B", "O", sem.Op{Class: sem.Assign, Member: "m2"}); err != nil || granted {
		t.Fatalf("invoke B: granted=%v err=%v, want queued", granted, err)
	}
	if err := m.Sleep("B"); err != nil {
		t.Fatal(err)
	}
	// A goes away without committing: nothing incompatible happened while B
	// slept, so phase 1 passes and phase 2 re-grants B's queued invocation —
	// which fails loading m2's permanent value.
	if err := m.Abort("A"); err != nil {
		t.Fatal(err)
	}
	resumed, err := m.Awake("B")
	if resumed || err == nil {
		t.Fatalf("awake = (%v, %v), want load failure", resumed, err)
	}
	info, err := m.TxInfo("B")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateAborted || info.Reason != AbortResumeFailure {
		t.Fatalf("aborted as %s/%s, want Aborted/resume-failure", info.State, info.Reason)
	}
	st := m.Stats()
	if st.AbortsBy[AbortResumeFailure] != 1 {
		t.Fatalf("AbortsBy[resume-failure] = %d, want 1", st.AbortsBy[AbortResumeFailure])
	}
	if st.AbortsBy[AbortSSTFailure] != 0 || st.SSTFailures != 0 {
		t.Fatalf("resume failure leaked into SST accounting: %+v", st)
	}
	if got := reg.Snapshot()[`gtm_aborts_total{reason="resume-failure"}`]; got != 1 {
		t.Fatalf(`gtm_aborts_total{reason="resume-failure"} = %d, want 1`, got)
	}
}

// TestExecutorQueueOverflowRunsInline: a full queue degrades to the seed's
// inline execution instead of deadlocking or dropping the SST.
func TestExecutorQueueOverflowRunsInline(t *testing.T) {
	store := NewMemStore()
	m := NewManager(store, WithSSTExecutor(1, 0)) // no queue slack at all
	defer m.Close()
	ctx := context.Background()
	const txs = 16
	for i := 0; i < txs; i++ {
		ref := StoreRef{Table: "T", Key: fmt.Sprintf("K%d", i), Column: "v"}
		store.Seed(ref, sem.Int(0))
		if err := m.RegisterAtomicObject(ObjectID(fmt.Sprintf("X%d", i)), ref); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, txs)
	for i := 0; i < txs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := TxID(fmt.Sprintf("T%d", i))
			obj := ObjectID(fmt.Sprintf("X%d", i))
			c, err := m.BeginClient(id)
			if err == nil {
				if err = c.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err == nil {
					if err = c.Apply(obj, sem.Int(1)); err == nil {
						err = c.Commit(ctx)
					}
				}
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if store.Applied() != txs {
		t.Fatalf("applied SSTs = %d, want %d", store.Applied(), txs)
	}
}

// batchGate is a BatchStore over MemStore that records every batched call
// and parks the first ApplySST until released, so a test can queue SSTs
// behind one that is in flight.
type batchGate struct {
	*MemStore
	gate    sync.Once
	entered chan struct{}
	release chan struct{}

	mu      sync.Mutex
	batches [][][]SSTWrite
}

func (s *batchGate) ApplySST(writes []SSTWrite) error {
	s.gate.Do(func() {
		close(s.entered)
		<-s.release
	})
	return s.MemStore.ApplySST(writes)
}

func (s *batchGate) ApplySSTBatch(sets [][]SSTWrite) error {
	s.mu.Lock()
	s.batches = append(s.batches, sets)
	s.mu.Unlock()
	return s.MemStore.ApplySSTBatch(sets)
}

func (s *batchGate) batchCalls() [][][]SSTWrite {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// gatedManager builds a manager over a batchGate with objects O00..O<n-1>
// seeded at 100. Object order is the reverse of StoreRef order, so a write
// set that is not sorted shows.
func gatedManager(t *testing.T, objs int, opts ...Option) (*Manager, *batchGate) {
	t.Helper()
	store := &batchGate{MemStore: NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	m := NewManager(store, opts...)
	for i := 0; i < objs; i++ {
		ref := StoreRef{Table: "T", Key: fmt.Sprintf("K%02d", objs-1-i), Column: "v"}
		store.Seed(ref, sem.Int(100))
		if err := m.RegisterAtomicObject(ObjectID(fmt.Sprintf("O%02d", i)), ref); err != nil {
			t.Fatal(err)
		}
	}
	return m, store
}

// stageAdd stages one granted AddSub of delta on obj for tx.
func stageAdd(t *testing.T, m *Manager, tx TxID, obj ObjectID, delta int64) {
	t.Helper()
	if granted, err := m.Invoke(tx, obj, sem.Op{Class: sem.AddSub}); err != nil || !granted {
		t.Fatalf("invoke %s on %s: granted=%v err=%v", tx, obj, granted, err)
	}
	if err := m.Apply(tx, obj, sem.Int(delta)); err != nil {
		t.Fatal(err)
	}
}

// beginAdd begins tx and stages one AddSub on obj.
func beginAdd(t *testing.T, m *Manager, tx TxID, obj ObjectID, delta int64) {
	t.Helper()
	if err := m.Begin(tx); err != nil {
		t.Fatal(err)
	}
	stageAdd(t, m, tx, obj, delta)
}

// commitHead commits HEAD on O00 and waits until its SST is parked in the
// store: the one worker is busy, and every later commit queues behind it.
func commitHead(t *testing.T, m *Manager, store *batchGate) {
	t.Helper()
	beginAdd(t, m, "HEAD", "O00", -1)
	if err := m.RequestCommit("HEAD"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("HEAD's SST never reached the store")
	}
}

// TestExecutorDrainsQueueIntoOneBatch: N SSTs queued behind one in flight
// reach the store as exactly one batched transaction of N write sets, in
// queue order, each set in canonical StoreRef order.
func TestExecutorDrainsQueueIntoOneBatch(t *testing.T) {
	const n = 5
	m, store := gatedManager(t, 1+2*n, WithSSTExecutor(1, 16))
	defer m.Close()
	commitHead(t, m, store)
	for i := 0; i < n; i++ {
		tx := TxID(fmt.Sprintf("T%d", i))
		beginAdd(t, m, tx, ObjectID(fmt.Sprintf("O%02d", 1+2*i)), -1)
		stageAdd(t, m, tx, ObjectID(fmt.Sprintf("O%02d", 2+2*i)), -2)
		if err := m.RequestCommit(tx); err != nil {
			t.Fatal(err)
		}
		if st, _ := m.TxState(tx); st != StateCommitting {
			t.Fatalf("%s = %s, want Committing while queued", tx, st)
		}
	}
	if store.Applied() != 0 {
		t.Fatalf("store applied %d SSTs while the worker was parked", store.Applied())
	}
	close(store.release)
	for i := 0; i < n; i++ {
		waitState(t, m, TxID(fmt.Sprintf("T%d", i)), StateCommitted)
	}
	calls := store.batchCalls()
	if len(calls) != 1 {
		t.Fatalf("ApplySSTBatch calls = %d, want 1", len(calls))
	}
	if len(calls[0]) != n {
		t.Fatalf("the batch carries %d sets, want %d", len(calls[0]), n)
	}
	for i, set := range calls[0] {
		// Tx i wrote O(1+2i) and O(2+2i); the higher object has the lower ref.
		lo := StoreRef{Table: "T", Key: fmt.Sprintf("K%02d", 2*n-2-2*i), Column: "v"}
		hi := StoreRef{Table: "T", Key: fmt.Sprintf("K%02d", 2*n-1-2*i), Column: "v"}
		if len(set) != 2 || set[0].Ref != lo || set[1].Ref != hi {
			t.Fatalf("set %d = %v, want [%s %s]", i, set, lo, hi)
		}
	}
	if store.Applied() != n+1 {
		t.Fatalf("store applied %d write sets, want %d", store.Applied(), n+1)
	}
}

// TestExecutorDepthOneNeverBatches: commits that find the queue empty take
// the unbatched path, one ApplySST each.
func TestExecutorDepthOneNeverBatches(t *testing.T) {
	m, store := gatedManager(t, 1, WithSSTExecutor(4, 64))
	defer m.Close()
	close(store.release)
	const commits = 5
	for i := 0; i < commits; i++ {
		tx := TxID(fmt.Sprintf("T%d", i))
		beginAdd(t, m, tx, "O00", -1)
		if err := m.RequestCommit(tx); err != nil {
			t.Fatal(err)
		}
		waitState(t, m, tx, StateCommitted)
	}
	if calls := store.batchCalls(); len(calls) != 0 {
		t.Fatalf("ApplySSTBatch called %d times at depth 1", len(calls))
	}
	if store.Applied() != commits {
		t.Fatalf("store applied %d SSTs, want %d", store.Applied(), commits)
	}
}

// TestExecutorBatchFallbackIsolatesFailure: when the batched store
// transaction fails, its members are re-applied one SST at a time — the
// transaction with the violating write set aborts, the others commit.
func TestExecutorBatchFallbackIsolatesFailure(t *testing.T) {
	reg := obs.NewRegistry()
	m, store := gatedManager(t, 4,
		WithObservability(NewObservability(reg, 0)), WithSSTExecutor(1, 16))
	defer m.Close()
	store.Validate = func(ref StoreRef, v sem.Value) error {
		if v.Int64() < 0 {
			return fmt.Errorf("constraint: %s must stay non-negative, got %d", ref, v.Int64())
		}
		return nil
	}
	commitHead(t, m, store)
	beginAdd(t, m, "GOOD1", "O01", -1)
	beginAdd(t, m, "BAD", "O02", -101) // drives O02 to −1
	beginAdd(t, m, "GOOD2", "O03", -1)
	for _, tx := range []TxID{"GOOD1", "BAD", "GOOD2"} {
		if err := m.RequestCommit(tx); err != nil {
			t.Fatal(err)
		}
	}
	close(store.release)
	waitState(t, m, "GOOD1", StateCommitted)
	waitState(t, m, "GOOD2", StateCommitted)
	waitState(t, m, "BAD", StateAborted)
	if info, err := m.TxInfo("BAD"); err != nil || info.Reason != AbortSSTFailure {
		t.Fatalf("BAD aborted as %v (%v), want %s", info.Reason, err, AbortSSTFailure)
	}
	if v, _ := m.Permanent("O02", ""); !v.Equal(sem.Int(100)) {
		t.Fatalf("O02 = %v, want 100 (BAD aborted)", v)
	}
	if v, _ := m.Permanent("O03", ""); !v.Equal(sem.Int(99)) {
		t.Fatalf("O03 = %v, want 99", v)
	}
	snap := reg.Snapshot()
	if got := snap[obs.NameSSTBatchFallbacks]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.NameSSTBatchFallbacks, got)
	}
	if b, txs := snap[obs.NameSSTBatches], snap[obs.NameSSTBatchTxs]; b != 2 || txs != 4 {
		t.Fatalf("batches = %d carrying %d txs, want 2 carrying 4", b, txs)
	}
}

// TestCloseDeliversQueuedOutcomes: Manager.Close with a part-filled queue
// returns only after every queued SST has its outcome, and a commit after
// Close still completes (on the committing goroutine).
func TestCloseDeliversQueuedOutcomes(t *testing.T) {
	m, store := gatedManager(t, 4, WithSSTExecutor(1, 16))
	commitHead(t, m, store)
	queued := []TxID{"A", "B"}
	for i, tx := range queued {
		beginAdd(t, m, tx, ObjectID(fmt.Sprintf("O%02d", i+1)), -1)
		if err := m.RequestCommit(tx); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	// Release the store only once the queue is closed with A and B in it.
	for {
		m.exec.mu.Lock()
		done := m.exec.closed
		m.exec.mu.Unlock()
		if done {
			break
		}
		runtime.Gosched()
	}
	close(store.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	for _, tx := range append(queued, "HEAD") {
		if st, err := m.TxState(tx); err != nil || st != StateCommitted {
			t.Fatalf("%s = %v, %v after Close; want Committed", tx, st, err)
		}
	}
	beginAdd(t, m, "LATE", "O03", -1)
	if err := m.RequestCommit("LATE"); err != nil {
		t.Fatal(err)
	}
	if st, _ := m.TxState("LATE"); st != StateCommitted {
		t.Fatalf("LATE = %s after RequestCommit on a closed executor, want Committed", st)
	}
}
