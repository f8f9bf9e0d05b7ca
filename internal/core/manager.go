package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"preserial/internal/clock"
	"preserial/internal/sem"
)

// Stats are monotonically increasing GTM counters.
type Stats struct {
	Begun        uint64
	Committed    uint64
	Aborted      uint64
	AbortsBy     map[AbortReason]uint64
	Grants       uint64 // invocations granted (immediately or after a wait)
	Waits        uint64 // invocations that had to queue
	Sleeps       uint64
	Awakes       uint64 // awakenings that resumed
	AwakeAborts  uint64 // awakenings that aborted (conflict during sleep)
	SSTs         uint64 // successful secure system transactions
	SSTFailures  uint64
	Reconciled   uint64 // commits whose X_new differed from A_temp
	DeniedAdmits uint64 // admissions refused by extension policies
}

// Manager is the Global Transaction Manager. It is a monitor: every method
// is safe for concurrent use, and all notifications fire outside the
// critical section.
type Manager struct {
	mon monitor

	clk   clock.Clock
	store Store
	opts  options
	obs   *Observability // nil unless WithObservability
	exec  *sstExecutor   // nil unless WithSSTExecutor

	mvcc mvccState // the monitor-free snapshot read path (mvcc.go)

	txs  map[TxID]*transaction
	objs objIndex

	// terminal holds the retained terminal transactions in the order they
	// finished; the registry keeps at most terminalRetention of them (see
	// retireLocked). retained counts those still registered — a Forget
	// leaves its queue entry behind to rotate out.
	terminal fifo[*transaction]
	retained int

	// sleepQ lists sleepers in the order they went to sleep. A_tsleep's
	// commit sequence is monotone along it, so the oldest live sleeper —
	// the only one the GC horizon needs — is the first entry that is still
	// current; stale entries (awakened, aborted, slept again) are dropped
	// when they reach the front. sleeping counts the live ones.
	sleepQ   fifo[sleepEntry]
	sleeping int

	// gcq is the horizon queue: one entry per committed per-object
	// operation, in commit-sequence order (see pruneHistoriesLocked).
	gcq fifo[gcEntry]

	stats     Stats
	history   [][]HistoryEntry // chunks of historyChunk entries; only the last is short
	commitSeq uint64           // global commit sequence (see commitRecord.seq)
}

// terminalRetention bounds the registry: the most recent terminalRetention
// terminal transactions stay answerable (TxState, TxInfo, duplicate-id
// detection); older ones are retired first-in first-out exactly as if the
// caller had Forgotten them.
const terminalRetention = 1 << 14

// historyChunk is the WithHistory log's chunk size: the log grows by whole
// chunks, so a long run never re-copies what it already recorded.
// historyRetention bounds the log: once that many entries are held, opening
// a new chunk drops the oldest one whole.
const (
	historyChunk     = 1024
	historyRetention = 64 * historyChunk
)

// gcBatch bounds the horizon-queue entries one publish retires beyond twice
// its own, so the backlog released by one long sleeper's wake-up is worked
// off over the following commits rather than in one critical section.
const gcBatch = 64

// sleepEntry is one arrival in Manager.sleepQ: t's sleep that was the
// manager's nth. It is current while that sleep lasts.
type sleepEntry struct {
	t   *transaction
	nth uint64
}

func (e sleepEntry) current() bool {
	return e.t.state == StateSleeping && e.t.sleepNth == e.nth
}

// gcEntry is one horizon-queue element: object o gained a committed-history
// record at seq and, for an update, member mb's chain a version (mb is nil
// for read-class operations).
type gcEntry struct {
	o   *object
	mb  *member
	seq uint64
}

// NewManager creates a GTM over the given store (which may be nil for a
// purely virtual manager, e.g. in unit tests of the scheduling logic).
func NewManager(store Store, opt ...Option) *Manager {
	m := &Manager{
		clk:   clock.Wall{},
		store: store,
		txs:   make(map[TxID]*transaction),
		objs:  newObjIndex(),
	}
	m.stats.AbortsBy = make(map[AbortReason]uint64)
	m.opts = defaultOptions()
	for _, o := range opt {
		o(&m.opts)
	}
	if m.opts.clk != nil {
		m.clk = m.opts.clk
	}
	m.obs = m.opts.obs
	if m.opts.sstWorkers > 0 {
		var gauge *atomic.Int64
		if m.obs != nil {
			gauge = &m.obs.sstQueue
		}
		m.exec = newSSTExecutor(m.opts.sstWorkers, m.opts.sstQueueDepth, gauge, m.applySSTs)
	}
	return m
}

// Close stops the SST executor (if any) after its queue drains. The Manager
// remains usable — later SSTs simply run unbatched and unpooled. Managers
// created without an executor need no Close.
func (m *Manager) Close() {
	if m.exec != nil {
		m.exec.close()
	}
}

// RegisterObject declares a database object to the GTM. refs maps data
// members to backing-store locations ("" is the member name for atomic
// objects); deps describes logical dependence between members (nil treats
// distinct members as independent).
func (m *Manager) RegisterObject(id ObjectID, refs map[string]StoreRef, deps *sem.Dependencies) error {
	defer m.mon.enter(m)()
	if m.objs.get(id) != nil {
		return fmt.Errorf("%w: %s", ErrObjectExists, id)
	}
	o := &object{id: id, conflict: m.opts.conflict, deps: deps}
	names := make([]string, 0, len(refs))
	for name := range refs {
		names = append(names, name)
	}
	sort.Strings(names)
	var head *member
	for i := len(names) - 1; i >= 0; i-- {
		head = &member{name: names[i], ref: refs[names[i]], backed: true, next: head}
	}
	o.members.Store(head)
	m.objs.put(o)
	return nil
}

// RegisterAtomicObject declares an unstructured object backed by a single
// store location.
func (m *Manager) RegisterAtomicObject(id ObjectID, ref StoreRef) error {
	return m.RegisterObject(id, map[string]StoreRef{"": ref}, nil)
}

// Objects returns the registered object ids in sorted order.
func (m *Manager) Objects() []ObjectID {
	defer m.mon.enter(m)()
	out := make([]ObjectID, len(m.objs.all))
	for i, o := range m.objs.all {
		out[i] = o.id
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Begin implements ⟨begin,A⟩ (Algorithm 1): the transaction enters the
// Active state.
func (m *Manager) Begin(id TxID, opt ...TxOption) error {
	defer m.mon.enter(m)()
	if _, ok := m.txs[id]; ok {
		return fmt.Errorf("%w: %s", ErrTxExists, id)
	}
	t := newTransaction(id, m.clk.Now())
	for _, o := range opt {
		o(t)
	}
	m.txs[id] = t
	m.stats.Begun++
	if m.obs != nil {
		m.obs.begun.Inc()
		m.traceLocked("begin", t, "", 0, 0, "")
	}
	return nil
}

// Invoke implements ⟨op,X,A⟩ (Algorithm 2). If the operation is compatible
// with every non-sleeping pending and committing holder (and passes the
// optional admission extensions), it is granted immediately: the
// transaction gets a virtual copy seeded from X_permanent and Invoke
// returns granted=true. Otherwise the transaction moves to Waiting,
// granted=false is returned, and an EvGranted notification follows when the
// conflict clears. A wait that would close a cycle in the wait-for graph is
// refused with ErrDeadlock (the transaction stays Active; the caller
// decides whether to retry or abort).
func (m *Manager) Invoke(txID TxID, objID ObjectID, op sem.Op) (granted bool, err error) {
	defer m.mon.enter(m)()
	t, o, err := m.lookupLocked(txID, objID)
	if err != nil {
		return false, err
	}
	if t.state != StateActive {
		return false, fmt.Errorf("%w: %s is %s, invocation requires Active", ErrBadState, txID, t.state)
	}
	t.lastActivity = m.clk.Now()
	if !op.Class.Valid() {
		return false, fmt.Errorf("%w: invalid class %d", ErrOpClass, op.Class)
	}
	if h := o.holder(txID); h != nil {
		if h.flags&holdCommitting != 0 {
			return false, fmt.Errorf("%w: %s already committing on %s", ErrOneOpPerObj, txID, objID)
		}
		return false, fmt.Errorf("%w: %s on %s", ErrOneOpPerObj, txID, objID)
	}
	if o.waiterFor(txID) != nil {
		return false, fmt.Errorf("%w: %s already queued on %s", ErrOneOpPerObj, txID, objID)
	}

	if reason := m.admissionBlockLocked(t, o, op, nil); reason != admitOK {
		cause := "policy"
		if reason == admitConflict {
			cause = "conflict"
			// Refuse waits that would deadlock.
			blockers := o.conflictingHolders(txID, op)
			if m.opts.detectDeadlocks && m.wouldDeadlockLocked(txID, blockers) {
				return false, fmt.Errorf("%w: %s waiting on %s", ErrDeadlock, txID, objID)
			}
			if m.obs != nil {
				m.obs.conflicts.Inc()
			}
		} else {
			m.stats.DeniedAdmits++
			if m.obs != nil {
				m.obs.denied.Inc()
			}
			if m.opts.denyHard {
				return false, fmt.Errorf("%w: %s on %s", ErrDenied, txID, objID)
			}
		}
		now := m.clk.Now()
		m.setStateLocked(t, StateWaiting)
		t.twait = now
		t.objects = append(t.objects, o)
		o.waiting = append(o.waiting, &waitEntry{tx: txID, op: op, since: now, priority: t.priority})
		m.stats.Waits++
		if m.obs != nil {
			m.obs.waits.Inc()
			m.traceLocked("wait", t, objID, 0, 0, cause)
		}
		return false, nil
	}

	if err := m.grantLocked(t, o, op); err != nil {
		return false, err
	}
	t.objects = append(t.objects, o)
	return true, nil
}

// admission verdicts.
type admitVerdict uint8

const (
	admitOK admitVerdict = iota
	admitConflict
	admitPolicy
)

// admissionBlockLocked decides whether an invocation may be granted right now:
// the Algorithm 2 compatibility precondition first, then the Section VII
// extensions (starvation control, constraint headroom). self is the
// candidate's queue entry when re-evaluating a waiter at dispatch (nil for
// a fresh invocation).
func (m *Manager) admissionBlockLocked(t *transaction, o *object, op sem.Op, self *waitEntry) admitVerdict {
	if o.holdersConflicting(t.id, op) {
		return admitConflict
	}
	if limit := m.opts.incompatibleWaiterCap; limit > 0 && !o.holderless(op, t.id) {
		// Starvation control: deny a compatible admission when too many
		// incompatible transactions are queued ahead of the candidate.
		if o.incompatibleWaitersAhead(op, self) >= limit {
			return admitPolicy
		}
	}
	if m.opts.headroom != nil && op.Class.IsUpdate() {
		perm, err := m.loadPermanentLocked(o, o.ensureMember(op.Member))
		if err == nil {
			limit := m.opts.headroom(o.id, perm)
			if limit >= 0 && o.compatibleUpdaters(t.id, op) >= limit {
				return admitPolicy
			}
		}
	}
	return admitOK
}

// grantLocked admits the invocation: Algorithm 2's compatible-path
// postcondition. The caller records the object on the transaction (a fresh
// invocation) or already has (a waiter being granted).
func (m *Manager) grantLocked(t *transaction, o *object, op sem.Op) error {
	perm, err := m.loadPermanentLocked(o, o.ensureMember(op.Member))
	if err != nil {
		return err
	}
	o.holders = append(o.holders, holder{tx: t.id, op: op, read: perm, temp: perm, flags: holdPending})
	m.stats.Grants++
	if m.obs != nil {
		m.obs.admits.Inc()
	}
	return nil
}

// loadPermanentLocked returns the X_permanent mirror for a member, loading it
// from the store on first access.
func (m *Manager) loadPermanentLocked(o *object, mb *member) (sem.Value, error) {
	if mb.known {
		return mb.perm, nil
	}
	v := sem.Null()
	if mb.backed && m.store != nil {
		loaded, err := m.store.Load(mb.ref)
		if err != nil {
			return sem.Null(), fmt.Errorf("core: loading %s of %s: %w", mb.name, o.id, err)
		}
		v = loaded
	}
	mb.perm = v
	mb.known = true
	return v, nil
}

// ReadValue returns the transaction's virtual value A_temp^X. The
// invocation must have been granted.
func (m *Manager) ReadValue(txID TxID, objID ObjectID) (sem.Value, error) {
	defer m.mon.enter(m)()
	t, o, err := m.lookupLocked(txID, objID)
	if err != nil {
		return sem.Value{}, err
	}
	h := o.pendingHolder(txID)
	if h == nil {
		return sem.Value{}, fmt.Errorf("%w: %s on %s", ErrNotInvoked, txID, objID)
	}
	t.lastActivity = m.clk.Now()
	return h.temp, nil
}

// Apply performs one operation of the invoked class on the virtual copy:
// add/sub adds the (possibly negative) operand, mul/div multiplies by the
// (possibly fractional) operand, assign and insert overwrite, delete (a
// null operand to an insert/delete invocation) clears. Read invocations
// cannot modify.
func (m *Manager) Apply(txID TxID, objID ObjectID, operand sem.Value) error {
	defer m.mon.enter(m)()
	t, o, err := m.lookupLocked(txID, objID)
	if err != nil {
		return err
	}
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	h := o.pendingHolder(txID)
	if h == nil {
		return fmt.Errorf("%w: %s on %s", ErrNotInvoked, txID, objID)
	}
	t.lastActivity = m.clk.Now()
	cur := h.temp
	var next sem.Value
	switch h.op.Class {
	case sem.AddSub:
		next, err = cur.Add(operand)
	case sem.MulDiv:
		next, err = cur.Mul(operand)
	case sem.Assign, sem.InsertDelete:
		next = operand
	case sem.Read:
		return fmt.Errorf("%w: read invocations cannot modify %s", ErrOpClass, objID)
	default:
		return fmt.Errorf("%w: %s", ErrOpClass, h.op.Class)
	}
	if err != nil {
		return fmt.Errorf("core: apply on %s: %w", objID, err)
	}
	h.temp = next
	return nil
}

// RequestCommit implements the commit protocol: a local commit
// ⟨commit,X,A⟩ (Algorithm 3) on every object the transaction holds — each
// requiring the object's exclusive committer slot, acquired in canonical
// object order so commits cannot deadlock — followed by the global commit
// ⟨commit,A⟩ (Algorithm 4), which runs the Secure System Transaction and
// publishes the reconciled values. The method returns immediately; when
// slots are contended the commit completes asynchronously and the outcome
// arrives as EvCommitted or EvAborted. Use CommitWait for a synchronous
// client.
func (m *Manager) RequestCommit(txID TxID) error {
	defer m.mon.enter(m)()
	return m.requestCommitLocked(txID, false)
}

// requestCommitLocked starts the commit protocol. prepare=true stops at the
// staged-write-set barrier (the cross-shard prepare) instead of launching
// the SST; see PrepareCommit.
func (m *Manager) requestCommitLocked(txID TxID, prepare bool) error {
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s, commit requires Active", ErrBadState, txID, t.state)
	}
	t.preparing = prepare
	t.lastActivity = m.clk.Now()
	t.commitStart = t.lastActivity
	m.setStateLocked(t, StateCommitting)
	// Collect the objects with a live invocation, in canonical order.
	// Read-class invocations are split off: they need no committer slot and
	// no reconciliation, so their pending slots are released right here (the
	// read-class local commit) instead of riding the slot pipeline until the
	// global commit — a pure read must not block conflicting writers for the
	// duration of someone else's SST.
	var want, reads []*object
	for _, o := range t.objects {
		h := o.pendingHolder(txID)
		if h == nil {
			continue
		}
		if h.op.Class == sem.Read {
			reads = append(reads, o)
			continue
		}
		want = append(want, o)
	}
	sortObjects(want)
	sortObjects(reads)
	t.commitWant = want
	for _, o := range reads {
		m.releaseReadSlotLocked(t, o)
	}
	m.advanceCommitLocked(t)
	return nil
}

// releaseReadSlotLocked local-commits one read-class invocation without the
// committer slot: the virtual value is captured for the publish phase, the
// pending slot frees immediately (conflicting waiters become admissible),
// and the op stays visible to awakening sleepers as a released holder
// until the transaction publishes or aborts.
func (m *Manager) releaseReadSlotLocked(t *transaction, o *object) {
	h := o.holder(t.id)
	t.readLocals = append(t.readLocals, localWrite{o: o, op: h.op, val: h.temp, read: h.read})
	h.flags = holdReleased
	h.temp, h.read = sem.Value{}, sem.Value{}
	m.dispatchLocked(o)
}

// advanceCommitLocked acquires committer slots in order, performing the local
// commit on each object as its slot is obtained, and fires the global
// commit (or, for a preparing transaction, stages the write set) once every
// slot is held. Called whenever a slot may have freed.
func (m *Manager) advanceCommitLocked(t *transaction) {
	if t.prepared {
		return // staged already; only Decide moves it forward
	}
	for len(t.commitWant) > 0 {
		o := t.commitWant[0]
		if o.hasCommitter() {
			// Another transaction holds the committer slot; queue behind it
			// (Algorithm 3's one-committer precondition).
			if !containsTx(o.commitQ, t.id) {
				o.commitQ = append(o.commitQ, t.id)
			}
			return
		}
		if err := m.localCommitLocked(t, o); err != nil {
			m.finishAbortLocked(t, AbortSSTFailure, err)
			return
		}
		t.commitWant = t.commitWant[1:]
		t.commitHeld = append(t.commitHeld, o)
		// The object lost a pending holder; waiters may now be admissible.
		m.dispatchLocked(o)
	}
	if t.preparing {
		m.stagePreparedLocked(t)
		return
	}
	m.globalCommitLocked(t)
}

// localCommitLocked is Algorithm 3's postcondition: compute X_new^A = ρ(X_read^A,
// A_temp^X, X_permanent) and move the transaction from X_pending to
// X_committing.
func (m *Manager) localCommitLocked(t *transaction, o *object) error {
	h := o.holder(t.id)
	rec, err := sem.ReconcilerFor(h.op.Class)
	if err != nil {
		return err
	}
	perm, err := m.loadPermanentLocked(o, o.ensureMember(h.op.Member))
	if err != nil {
		return err
	}
	neu, err := rec.Reconcile(h.read, h.temp, perm)
	if err != nil {
		return err
	}
	if !neu.Equal(h.temp) {
		m.stats.Reconciled++
		if m.obs != nil {
			m.obs.reconciled.Inc()
		}
	}
	// X_read is retained until the global commit for the history record.
	h.neu, h.temp = neu, sem.Value{}
	h.flags = holdCommitting
	return nil
}

// localWrite carries one object's commit payload from the local-commit
// phase to the publish phase.
type localWrite struct {
	o    *object
	mb   *member // the member an update writes; nil for read-class ops
	op   sem.Op
	val  sem.Value
	read sem.Value
}

// globalCommitLocked is Algorithm 4: every X_new is defined, so run the Secure
// System Transaction and publish. The SST executes *outside* the monitor —
// it is a separate transaction the LDBS runs while the GTM keeps handling
// events — so other transactions can work, queue, and contend for the
// committer slots meanwhile; the transaction stays in X_committing (and
// therefore conflicts with incompatible invocations) until the SST's
// outcome arrives in completeSST. On SST failure the transaction aborts
// (Section VII discusses this path: reconciled values can violate
// integrity constraints).
func (m *Manager) globalCommitLocked(t *transaction) {
	locals, writes := m.collectCommitLocked(t)
	if m.store == nil || len(writes) == 0 {
		m.publishLocked(t, locals)
		return
	}
	m.launchSSTLocked(t, locals, writes)
}

// collectCommitLocked assembles the commit payload from the held committer
// slots: the per-object publish records and the SST write set, both in
// canonical order.
func (m *Manager) collectCommitLocked(t *transaction) ([]localWrite, []SSTWrite) {
	var locals []localWrite
	var writes []SSTWrite
	locals = append(locals, t.readLocals...)
	for _, o := range t.commitHeld {
		h := o.holder(t.id)
		lw := localWrite{o: o, op: h.op, val: h.neu, read: h.read}
		if h.op.Class.IsUpdate() {
			lw.mb = o.ensureMember(h.op.Member)
			if lw.mb.backed {
				writes = append(writes, SSTWrite{Ref: lw.mb.ref, Value: lw.val})
			}
		}
		locals = append(locals, lw)
	}
	// Object order is not StoreRef order: without sorting, concurrent SSTs
	// would acquire LDBS row locks in differing orders and could deadlock
	// each other. Canonical StoreRef order makes SST↔SST deadlocks
	// structurally impossible (and the history deterministic).
	SortSSTWrites(writes)
	sort.Slice(locals, func(i, j int) bool { return locals[i].o.id < locals[j].o.id })
	return locals, writes
}

// launchSSTLocked marks the commit point and hands the Secure System
// Transaction to the executor's queue once the monitor is exited. A manager
// built without WithSSTExecutor, or one whose queue is full or closed,
// applies the SST on the goroutine exiting the monitor instead — the
// executor's synchronous edge, not a second pipeline. sstActive covers the
// whole window from here to publication: while it is non-zero a store load
// is not committed-stable, and the snapshot read path's miss protocol
// retries instead of trusting it.
func (m *Manager) launchSSTLocked(t *transaction, locals []localWrite, writes []SSTWrite) {
	t.sstInFlight = true
	t.sstStart = m.clk.Now()
	m.mvcc.sstActive.Add(1)
	job := sstJob{id: t.id, locals: locals, writes: writes}
	m.mon.queue(func() {
		if m.exec == nil || !m.exec.submit(job) {
			m.applySSTs([]sstJob{job})
		}
	})
}

// runSST executes one Secure System Transaction with the configured retry
// policy: up to sstRetries re-attempts for errors the filter accepts, with
// capped exponential backoff + jitter between attempts (no sleeping unless
// a backoff base is configured — WithSSTExecutor sets one).
func (m *Manager) runSST(writes []SSTWrite) error {
	retries := m.opts.sstRetries
	filter := m.opts.sstRetryFilter
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if m.obs != nil {
				m.obs.sstRetries.Inc()
			}
			if d := sstBackoff(m.opts.sstBackoffBase, m.opts.sstBackoffCap, attempt); d > 0 {
				clock.Wall{}.Sleep(d)
			}
		}
		err = m.store.ApplySST(writes)
		if err == nil || attempt >= retries || (filter != nil && !filter(err)) {
			return err
		}
	}
}

// completeSST re-enters the monitor with the SST's outcome. The sstActive
// decrement is deferred to after the publish (or abort) so the snapshot
// miss protocol never certifies a store load taken between the SST's store
// write and its publication.
func (m *Manager) completeSST(id TxID, locals []localWrite, sstErr error) {
	defer m.mon.enter(m)()
	defer m.mvcc.sstActive.Add(-1)
	t, ok := m.txs[id]
	if !ok {
		return // forgotten mid-flight: impossible via the public API
	}
	t.sstInFlight = false
	if m.obs != nil {
		sinceIfSet(m.obs.sstLatency, t.sstStart, m.clk.Now())
	}
	if sstErr != nil {
		m.stats.SSTFailures++
		if m.obs != nil {
			m.obs.sstFailures.Inc()
		}
		m.finishAbortLocked(t, AbortSSTFailure, sstErr)
		return
	}
	m.stats.SSTs++
	if m.obs != nil {
		m.obs.ssts.Inc()
	}
	m.publishLocked(t, locals)
}

// publishLocked installs the commit: X_permanent = X_new, history and X_tc
// records, committer slots freed, waiters and queued committers
// dispatched. Caller holds the monitor.
func (m *Manager) publishLocked(t *transaction, locals []localWrite) {
	now := m.clk.Now()
	m.commitSeq++
	for _, lw := range locals {
		o := lw.o
		if lw.mb != nil {
			m.pushVersionLocked(lw.mb, lw.val, m.commitSeq)
			lw.mb.perm = lw.val
			lw.mb.known = true
		}
		o.committed = append(o.committed, commitRecord{tx: t.id, op: lw.op, seq: m.commitSeq})
		if !m.opts.keepFullHistory {
			m.gcq.push(gcEntry{o: o, mb: lw.mb, seq: m.commitSeq})
		}
		if m.opts.recordHistory {
			m.recordHistoryLocked(HistoryEntry{
				Tx: t.id, Object: o.id, Op: lw.op, Read: lw.read, New: lw.val, TC: now,
			})
		}
		o.removeHolder(t.id)
	}
	// Version pushes above happen-before the sequence becomes pinnable:
	// a snapshot opened at N sees every chain node of every commit ≤ N.
	m.mvcc.seq.Store(m.commitSeq)
	m.setStateLocked(t, StateCommitted)
	t.finished = now
	m.stats.Committed++
	if m.obs != nil {
		m.obs.commits.Inc()
		sinceIfSet(m.obs.commitLatency, t.commitStart, now)
	}
	m.notifyTxLocked(t, Event{Type: EvCommitted, Tx: t.id})
	m.retireLocked(t)
	m.pruneHistoriesLocked(gcBatch + 2*len(locals))
	for _, lw := range locals {
		m.dispatchLocked(lw.o)
	}
}

// recordHistoryLocked appends to the WithHistory log, opening a new chunk
// when the last one is full. At historyRetention the new chunk is the
// oldest one's storage, recycled.
func (m *Manager) recordHistoryLocked(e HistoryEntry) {
	last := len(m.history) - 1
	if last < 0 || len(m.history[last]) == historyChunk {
		var chunk []HistoryEntry
		if len(m.history) == historyRetention/historyChunk {
			chunk = m.history[0][:0]
			m.history = m.history[:copy(m.history, m.history[1:])]
		}
		m.history = append(m.history, chunk)
		last = len(m.history) - 1
	}
	m.history[last] = append(m.history[last], e)
}

// retireLocked is the terminal transition's bookkeeping: the record is
// stripped to what TxState/TxInfo answer from, joins the retention queue,
// and the oldest retained transactions beyond terminalRetention leave the
// registry.
func (m *Manager) retireLocked(t *transaction) {
	t.txLive = nil
	m.terminal.push(t)
	m.retained++
	for m.terminal.len() > terminalRetention {
		old := m.terminal.front()
		m.terminal.pop()
		// A Forgotten transaction's entry is stale, and its id may since
		// have been reused: only the record still registered is retired.
		if m.txs[old.id] == old {
			delete(m.txs, old.id)
			m.retained--
		}
	}
	if m.obs != nil {
		m.obs.terminalRetained.Store(int64(m.retained))
	}
}

// Abort implements ⟨abort,X,A⟩ / ⟨abort,A⟩ (Algorithms 5–6) for a
// client-requested abort. Any non-terminal transaction may abort.
func (m *Manager) Abort(txID TxID) error {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state.Terminal() {
		return fmt.Errorf("%w: %s already %s", ErrBadState, txID, t.state)
	}
	if t.sstInFlight {
		// The SST has launched: the transaction is past its commit point.
		return fmt.Errorf("%w: %s is committing (SST in flight)", ErrBadState, txID)
	}
	if t.prepared {
		// In doubt: a coordinator owns the outcome now. Only Decide may
		// abort a prepared participant.
		return fmt.Errorf("%w: %s is prepared, awaiting coordinator decision", ErrBadState, txID)
	}
	m.setStateLocked(t, StateAborting)
	m.finishAbortLocked(t, AbortUser, nil)
	return nil
}

// finishAbortLocked clears the transaction from every object and finalizes
// Algorithm 6's postcondition. Objects are re-dispatched because the abort
// may free holders or committer slots.
func (m *Manager) finishAbortLocked(t *transaction, reason AbortReason, cause error) {
	sortObjects(t.objects)
	for _, o := range t.objects {
		o.dropTx(t.id)
	}
	if t.state != StateAborting {
		m.setStateLocked(t, StateAborting)
	}
	m.setStateLocked(t, StateAborted)
	t.finished = m.clk.Now()
	t.reason = reason
	t.lastErr = cause
	m.stats.Aborted++
	m.stats.AbortsBy[reason]++
	if m.obs != nil {
		m.obs.observeAbort(reason)
		m.traceLocked("abort", t, "", 0, 0, reason.String())
	}
	m.notifyTxLocked(t, Event{Type: EvAborted, Tx: t.id, Reason: reason, Err: cause})
	m.retireLocked(t)
	for _, o := range t.objects {
		m.dispatchLocked(o)
	}
}

// Sleep implements ⟨sleep,A⟩ + ⟨sleep,X,A⟩ (Algorithms 7–8): the oracle Ξ
// is the caller (the connection layer or the disconnection model). The
// transaction must be Active or Waiting. Objects the sleeper holds become
// available to other transactions — including incompatible ones, which is
// what makes awakening conditional.
func (m *Manager) Sleep(txID TxID) error {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	return m.sleepLocked(t)
}

// sleepLocked is Sleep's body; the caller holds the monitor.
func (m *Manager) sleepLocked(t *transaction) error {
	if t.state != StateActive && t.state != StateWaiting {
		return fmt.Errorf("%w: %s is %s, sleep requires Active or Waiting", ErrBadState, t.id, t.state)
	}
	m.setStateLocked(t, StateSleeping)
	t.tsleep = m.clk.Now()
	t.sleepSeq = m.commitSeq
	if m.sleepQ.len() > 2*m.sleeping+lazySweepSlack {
		// A long sleeper holds the front while shorter sleeps come and go
		// behind it: sweep the stale entries before they pile up.
		m.sleepQ.filter(sleepEntry.current)
	}
	m.stats.Sleeps++
	t.sleepNth = m.stats.Sleeps
	m.sleepQ.push(sleepEntry{t: t, nth: t.sleepNth})
	if m.obs != nil {
		m.obs.sleeps.Inc()
	}
	sortObjects(t.objects)
	for _, o := range t.objects {
		o.setSleeping(t.id, true)
	}
	// A sleeping holder no longer blocks admissions: re-dispatch.
	for _, o := range t.objects {
		m.dispatchLocked(o)
	}
	return nil
}

// SleepAllLive puts every Active or Waiting transaction to sleep in one
// critical section — the graceful-drain hook: a stopping server parks its
// live transactions so they survive the restart (clients re-attach and
// awaken) instead of dying with the process. Committing, Sleeping and
// terminal transactions are untouched. Returns the ids slept, in order.
func (m *Manager) SleepAllLive() []TxID {
	defer m.mon.enter(m)()
	ids := make([]TxID, 0, len(m.txs))
	for id, t := range m.txs {
		if t.state == StateActive || t.state == StateWaiting {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	slept := ids[:0]
	for _, id := range ids {
		if err := m.sleepLocked(m.txs[id]); err == nil {
			slept = append(slept, id)
		}
	}
	return slept
}

// Awake implements ⟨awake,X,A⟩ + ⟨awake,A⟩ (Algorithms 9–10). If no
// incompatible transaction entered X_pending ∪ X_committing or committed
// after A_tsleep on any object the sleeper touched, the transaction
// resumes: queued invocations are granted directly (with fresh virtual
// copies) and the state returns to Active (or Waiting when admission
// policies still defer a queued invocation). Otherwise the transaction is
// aborted with AbortSleepConflict and resumed=false is returned.
func (m *Manager) Awake(txID TxID) (resumed bool, err error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state != StateSleeping {
		return false, fmt.Errorf("%w: %s is %s, awake requires Sleeping", ErrBadState, txID, t.state)
	}

	// Phase 1: the per-object conflict checks of Algorithm 9.
	for _, o := range t.objects {
		var op sem.Op
		if h := o.pendingHolder(txID); h != nil {
			op = h.op
		} else if w := o.waiterFor(txID); w != nil {
			op = w.op
		} else {
			continue
		}
		if o.sleepConflict(txID, op, t.sleepSeq) {
			m.setStateLocked(t, StateAborting)
			m.stats.AwakeAborts++
			if m.obs != nil {
				m.obs.awakesAborted.Inc()
			}
			m.finishAbortLocked(t, AbortSleepConflict, nil)
			return false, nil
		}
	}

	// Phase 2: resume. Queued invocations are granted directly with fresh
	// reads of X_permanent; held invocations keep their virtual copies
	// (only compatible operations can have committed meanwhile, and the
	// commit-time reconciliation absorbs those).
	for _, o := range t.objects {
		o.setSleeping(txID, false)
		if w := o.removeWaiter(txID); w != nil {
			if err := m.grantLocked(t, o, w.op); err != nil {
				// No SST ran: the permanent value failed to load while
				// re-granting the queued invocation.
				m.setStateLocked(t, StateAborting)
				m.finishAbortLocked(t, AbortResumeFailure, err)
				return false, err
			}
		}
	}
	m.setStateLocked(t, StateActive)
	t.tsleep = time.Time{}
	t.twait = time.Time{}
	t.lastActivity = m.clk.Now()
	m.stats.Awakes++
	if m.obs != nil {
		m.obs.awakesResumed.Inc()
	}
	// Admissions this sleeper was indirectly blocking may now proceed.
	for _, o := range t.objects {
		m.dispatchLocked(o)
	}
	return true, nil
}

// dispatchLocked is the generalized ⟨unlock,X⟩ (Algorithm 11): whenever an
// object's holder set shrinks (commit, abort, sleep), grant the committer
// slot to the next queued committer and admit every waiting invocation
// that no longer conflicts with (X_pending − X_sleeping) ∪ X_committing —
// θ(X_waiting − X_sleeping), with θ the maximal admissible prefix in
// priority-then-arrival order.
func (m *Manager) dispatchLocked(o *object) {
	// Committer slot first: commit progress beats new admissions.
	for len(o.commitQ) > 0 && !o.hasCommitter() {
		next := o.commitQ[0]
		if o.commitQ = o.commitQ[1:]; len(o.commitQ) == 0 {
			o.commitQ = nil
		}
		t := m.txs[next]
		if t == nil || t.state != StateCommitting {
			continue
		}
		m.advanceCommitLocked(t)
	}

	// Admission pass over the waiting queue.
	if len(o.waiting) == 0 {
		return
	}
	ordered := make([]*waitEntry, len(o.waiting))
	copy(ordered, o.waiting)
	if m.opts.usePriorities {
		sort.SliceStable(ordered, func(i, j int) bool {
			if ordered[i].priority != ordered[j].priority {
				return ordered[i].priority > ordered[j].priority
			}
			return ordered[i].since.Before(ordered[j].since)
		})
	}
	for _, w := range ordered {
		t := m.txs[w.tx]
		if t == nil || t.state != StateWaiting || w.sleeping {
			continue // sleeping waiters stay queued (X_waiting − X_sleeping)
		}
		if m.admissionBlockLocked(t, o, w.op, w) != admitOK {
			if m.opts.usePriorities {
				continue // lower-priority waiters may still fit
			}
			break // FIFO: nobody overtakes the blocked head
		}
		o.removeWaiter(w.tx)
		if err := m.grantLocked(t, o, w.op); err != nil {
			m.setStateLocked(t, StateAborting)
			m.finishAbortLocked(t, AbortResumeFailure, err)
			continue
		}
		m.setStateLocked(t, StateActive)
		t.twait = time.Time{}
		if m.obs != nil {
			sinceIfSet(m.obs.invokeWait, w.since, m.clk.Now())
			m.traceLocked("grant", t, o.id, 0, 0, "")
		}
		m.notifyTxLocked(t, Event{Type: EvGranted, Tx: t.id, Object: o.id})
	}
}

// wouldDeadlockLocked reports whether txID waiting on blockers closes a cycle in
// the wait-for graph built from the current object states.
func (m *Manager) wouldDeadlockLocked(txID TxID, blockers []TxID) bool {
	edges := m.waitEdgesLocked()
	seen := make(map[TxID]bool)
	var reaches func(TxID) bool
	reaches = func(from TxID) bool {
		if from == txID {
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

// waitEdgesLocked builds the wait-for graph: waiting transactions point at the
// holders that block them, queued committers at the committer-slot holder.
func (m *Manager) waitEdgesLocked() map[TxID][]TxID {
	edges := make(map[TxID][]TxID)
	for _, o := range m.objs.all {
		for _, w := range o.waiting {
			if w.sleeping {
				continue
			}
			edges[w.tx] = append(edges[w.tx], o.conflictingHolders(w.tx, w.op)...)
		}
		if len(o.commitQ) == 0 {
			continue
		}
		for i := range o.holders {
			if h := &o.holders[i]; h.flags&holdCommitting != 0 {
				for _, q := range o.commitQ {
					edges[q] = append(edges[q], h.tx)
				}
			}
		}
	}
	return edges
}

// lookupLocked resolves a (transaction, object) pair.
func (m *Manager) lookupLocked(txID TxID, objID ObjectID) (*transaction, *object, error) {
	t, ok := m.txs[txID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	o := m.objs.get(objID)
	if o == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	return t, o, nil
}

// setStateLocked applies a transition of the transaction state machine S(A),
// panicking on an illegal transition — such a transition is always a bug in
// the Manager, never an environmental condition.
func (m *Manager) setStateLocked(t *transaction, to State) {
	if !canTransition(t.state, to) {
		panic(fmt.Sprintf("core: illegal state transition %s -> %s for %s", t.state, to, t.id))
	}
	if t.state != to {
		m.traceLocked("state", t, "", t.state, to, "")
	}
	if to == StateSleeping && t.state != StateSleeping {
		m.sleeping++
	} else if to != StateSleeping && t.state == StateSleeping {
		m.sleeping--
	}
	t.state = to
}

// notifyTxLocked queues an event for delivery after the critical section.
func (m *Manager) notifyTxLocked(t *transaction, ev Event) {
	if t.notify == nil {
		return
	}
	fn := t.notify
	m.mon.queue(func() { fn(ev) })
}

// pruneHistoriesLocked retires horizon-queue entries that have come due, at
// most budget of them. The GC horizon is the minimum of the commit head,
// the oldest sleeper's A_tsleep sequence and the oldest open snapshot's
// pin; it never moves backwards (a new sleeper or snapshot pins the current
// head). An entry at or below it marks a committed-history record no awake
// check can still ask about (sleepConflict admits only records after
// A_tsleep) and a version no snapshot can still read past, so the object's
// history prefix is trimmed and the member's chain truncated — work
// proportional to what this commit and its predecessors published, never to
// the number of registered objects.
func (m *Manager) pruneHistoriesLocked(budget int) {
	if m.opts.keepFullHistory {
		return
	}
	horizon := min(m.commitSeq, m.oldestSleepSeqLocked(), m.oldestSnapshotPinLocked())
	for ; budget > 0 && m.gcq.len() > 0; budget-- {
		e := m.gcq.front()
		if e.seq > horizon {
			break
		}
		e.o.pruneCommitted(horizon)
		if e.mb != nil {
			m.gcVersionsLocked(e.mb, horizon)
		}
		m.gcq.pop()
	}
	if m.obs != nil {
		m.obs.mvccHorizonLag.Store(int64(m.commitSeq - horizon))
		m.obs.gcQueueDepth.Store(int64(m.gcq.len()))
	}
}

// oldestSleepSeqLocked returns the A_tsleep commit sequence of the oldest
// live sleeper — the first current entry of the arrival queue — or noPin
// when nobody sleeps.
func (m *Manager) oldestSleepSeqLocked() uint64 {
	for m.sleepQ.len() > 0 {
		if e := m.sleepQ.front(); e.current() {
			return e.t.sleepSeq
		}
		m.sleepQ.pop()
	}
	return noPin
}

// TxState returns the current state of a transaction.
func (m *Manager) TxState(txID TxID) (State, error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	return t.state, nil
}

// TxInfo returns a snapshot of a transaction.
func (m *Manager) TxInfo(txID TxID) (TxInfo, error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return TxInfo{}, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	return t.info(), nil
}

// Permanent returns the GTM's X_permanent mirror of a member.
func (m *Manager) Permanent(objID ObjectID, member string) (sem.Value, error) {
	defer m.mon.enter(m)()
	o := m.objs.get(objID)
	if o == nil {
		return sem.Value{}, fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	return m.loadPermanentLocked(o, o.ensureMember(member))
}

// Stats returns a copy of the manager's counters.
func (m *Manager) Stats() Stats {
	defer m.mon.enter(m)()
	out := m.stats
	out.AbortsBy = make(map[AbortReason]uint64, len(m.stats.AbortsBy))
	for k, v := range m.stats.AbortsBy {
		out.AbortsBy[k] = v
	}
	return out
}

// History returns the committed-operation history (empty unless the
// manager was created WithHistory).
func (m *Manager) History() []HistoryEntry {
	defer m.mon.enter(m)()
	var out []HistoryEntry
	if n := len(m.history); n > 0 {
		out = make([]HistoryEntry, 0, (n-1)*historyChunk+len(m.history[n-1]))
	}
	for _, chunk := range m.history {
		out = append(out, chunk...)
	}
	return out
}

// Forget removes a terminal transaction from the registry so its id can be
// reused and memory reclaimed at once. It is optional: the registry retires
// terminal transactions on its own once more than terminalRetention (16 384)
// newer ones have finished, after which their ids answer ErrUnknownTx just
// as after Forget.
func (m *Manager) Forget(txID TxID) error {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if !t.state.Terminal() {
		return fmt.Errorf("%w: %s is %s, only terminal transactions can be forgotten", ErrBadState, txID, t.state)
	}
	delete(m.txs, txID)
	m.retained--
	if m.obs != nil {
		m.obs.terminalRetained.Store(int64(m.retained))
	}
	return nil
}

// containsTx reports membership in a TxID slice.
func containsTx(s []TxID, id TxID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// sortObjects puts objects in canonical (id) order.
func sortObjects(objs []*object) {
	sort.Slice(objs, func(i, j int) bool { return objs[i].id < objs[j].id })
}
