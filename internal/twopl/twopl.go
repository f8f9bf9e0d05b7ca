// Package twopl implements the paper's comparison baseline: a classical
// strict two-phase-locking scheduler applied to long-running transactions.
//
// Locks are held from acquisition to commit/abort — including across think
// time and disconnections, which is exactly the pathology the paper targets:
// a disconnected lock holder blocks every conflicting transaction until a
// supervision timeout kills it. The scheduler is event-driven (grants are
// delivered via callbacks) so the discrete-event simulator can drive it on
// virtual time, side by side with the GTM.
package twopl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"preserial/internal/clock"
	"preserial/internal/core"
	"preserial/internal/sem"
	"preserial/internal/waitfor"
)

// TxID identifies a transaction.
type TxID string

// ObjectID identifies a lockable object.
type ObjectID string

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	// Shared allows concurrent readers.
	Shared Mode = iota
	// Exclusive allows a single writer. Reads "finalized to update" take
	// Exclusive directly, as the paper assumes.
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// compatible reports whether two modes may coexist.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// State is a transaction's lifecycle state.
//
//gtmlint:exhaustive
type State uint8

// Transaction states.
const (
	StateActive State = iota
	StateWaiting
	StateCommitted
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "Active"
	case StateWaiting:
		return "Waiting"
	case StateCommitted:
		return "Committed"
	case StateAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// AbortReason classifies aborts.
//
//gtmlint:exhaustive
type AbortReason uint8

// Abort reasons.
const (
	AbortUser AbortReason = iota
	AbortDeadlock
	AbortTimeout
	AbortStoreFailure
)

// String names the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortUser:
		return "user"
	case AbortDeadlock:
		return "deadlock"
	case AbortTimeout:
		return "timeout"
	case AbortStoreFailure:
		return "store-failure"
	default:
		return fmt.Sprintf("AbortReason(%d)", uint8(r))
	}
}

// EventType discriminates notifications.
//
//gtmlint:exhaustive
type EventType uint8

// Notification types.
const (
	EvGranted EventType = iota
	EvAborted
)

// Event is an asynchronous notification.
type Event struct {
	Type   EventType
	Tx     TxID
	Object ObjectID
	Reason AbortReason
}

// Notify receives events for one transaction, outside the scheduler's
// critical section.
type Notify func(Event)

// Errors.
var (
	ErrUnknownTx     = errors.New("twopl: unknown transaction")
	ErrUnknownObject = errors.New("twopl: unknown object")
	ErrBadState      = errors.New("twopl: operation illegal in current state")
	ErrTxExists      = errors.New("twopl: transaction id already in use")
	ErrObjectExists  = errors.New("twopl: object already registered")
	ErrDeadlock      = errors.New("twopl: deadlock detected")
	ErrNoLock        = errors.New("twopl: lock not held")
)

// waiter is one queued lock request.
type waiter struct {
	tx    TxID
	mode  Mode
	since time.Time
}

// objState is the per-object lock table entry.
type objState struct {
	id        ObjectID
	ref       core.StoreRef
	permanent sem.Value
	permKnown bool
	holders   map[TxID]Mode
	queue     []*waiter
}

// tx is the per-transaction record.
type tx struct {
	id             TxID
	state          State
	notify         Notify
	locks          map[ObjectID]Mode
	writes         map[ObjectID]sem.Value
	waitingOn      ObjectID
	disconnected   bool
	disconnectedAt time.Time
	reason         AbortReason
	began          time.Time
	finished       time.Time
}

// Stats are monotonically increasing counters.
type Stats struct {
	Begun     uint64
	Committed uint64
	Aborted   uint64
	AbortsBy  map[AbortReason]uint64
	Waits     uint64
	Grants    uint64
}

// Scheduler is the baseline strict-2PL lock manager.
type Scheduler struct {
	mu     sync.Mutex
	queued []func()

	clk   clock.Clock
	store core.Store

	objs  map[ObjectID]*objState
	txs   map[TxID]*tx
	stats Stats
}

// New creates a scheduler over the given store (nil for a virtual one).
func New(store core.Store, clk clock.Clock) *Scheduler {
	if clk == nil {
		clk = clock.Wall{}
	}
	s := &Scheduler{
		clk:   clk,
		store: store,
		objs:  make(map[ObjectID]*objState),
		txs:   make(map[TxID]*tx),
	}
	s.stats.AbortsBy = make(map[AbortReason]uint64)
	return s
}

// enter locks the scheduler; the returned closure unlocks and fires queued
// notifications (same monitor pattern as the GTM).
func (s *Scheduler) enter() func() {
	s.mu.Lock()
	return func() {
		q := s.queued
		s.queued = nil
		s.mu.Unlock()
		for _, fn := range q {
			fn()
		}
	}
}

func (s *Scheduler) notifyTxLocked(t *tx, ev Event) {
	if t.notify == nil {
		return
	}
	fn := t.notify
	s.queued = append(s.queued, func() { fn(ev) })
}

// RegisterObject declares a lockable object backed by a store location.
func (s *Scheduler) RegisterObject(id ObjectID, ref core.StoreRef) error {
	defer s.enter()()
	if _, ok := s.objs[id]; ok {
		return fmt.Errorf("%w: %s", ErrObjectExists, id)
	}
	s.objs[id] = &objState{id: id, ref: ref, holders: make(map[TxID]Mode)}
	return nil
}

// Begin starts a transaction.
func (s *Scheduler) Begin(id TxID, notify Notify) error {
	defer s.enter()()
	if _, ok := s.txs[id]; ok {
		return fmt.Errorf("%w: %s", ErrTxExists, id)
	}
	s.txs[id] = &tx{
		id: id, state: StateActive, notify: notify,
		locks:  make(map[ObjectID]Mode),
		writes: make(map[ObjectID]sem.Value),
		began:  s.clk.Now(),
	}
	s.stats.Begun++
	return nil
}

// Lock requests mode on obj. It returns granted=true when the lock was
// acquired immediately; otherwise the transaction enters Waiting and an
// EvGranted notification follows. A wait that would close a wait-for cycle
// is refused with ErrDeadlock.
func (s *Scheduler) Lock(txID TxID, objID ObjectID, mode Mode) (granted bool, err error) {
	defer s.enter()()
	t, o, err := s.lookupLocked(txID, objID)
	if err != nil {
		return false, err
	}
	if t.state != StateActive {
		return false, fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	if held, ok := t.locks[objID]; ok {
		if held >= mode {
			return true, nil // already strong enough
		}
		// Upgrade S → X: grantable only when sole holder; upgrades jump the
		// queue (standard treatment; upgrade deadlocks are detected below).
	}
	if s.grantableLocked(o, t.id, mode) {
		s.grantLocked(o, t, mode)
		return true, nil
	}
	blockers := s.blockersLocked(o, t.id, mode)
	if s.wouldDeadlockLocked(t.id, blockers) {
		return false, fmt.Errorf("%w: %s requesting %s on %s", ErrDeadlock, txID, mode, objID)
	}
	t.state = StateWaiting
	t.waitingOn = objID
	o.queue = append(o.queue, &waiter{tx: t.id, mode: mode, since: s.clk.Now()})
	s.stats.Waits++
	return false, nil
}

// grantable: compatible with all other holders; fresh (non-upgrade)
// requests also respect FIFO (no overtaking a conflicting waiter).
func (s *Scheduler) grantableLocked(o *objState, id TxID, mode Mode) bool {
	_, upgrading := o.holders[id]
	for h, hm := range o.holders {
		if h == id {
			continue
		}
		if !compatible(mode, hm) {
			return false
		}
	}
	if upgrading {
		return true
	}
	for _, w := range o.queue {
		if w.tx != id && !compatible(mode, w.mode) {
			return false
		}
	}
	return true
}

func (s *Scheduler) grantLocked(o *objState, t *tx, mode Mode) {
	if cur, ok := o.holders[t.id]; !ok || mode > cur {
		o.holders[t.id] = mode
		t.locks[o.id] = mode
	}
	s.stats.Grants++
}

// blockersLocked lists transactions the requester would wait for.
func (s *Scheduler) blockersLocked(o *objState, id TxID, mode Mode) []TxID {
	var out []TxID
	for h, hm := range o.holders {
		if h != id && !compatible(mode, hm) {
			out = append(out, h)
		}
	}
	if _, upgrading := o.holders[id]; !upgrading {
		for _, w := range o.queue {
			if w.tx != id && !compatible(mode, w.mode) {
				out = append(out, w.tx)
			}
		}
	}
	return out
}

// wouldDeadlockLocked checks whether id waiting on blockers closes a cycle.
func (s *Scheduler) wouldDeadlockLocked(id TxID, blockers []TxID) bool {
	return waitfor.Closes(id, blockers, s.outEdgesLocked)
}

// outEdgesLocked returns the transactions id waits for: the blockers of its
// queue entry on the object it is waiting on.
func (s *Scheduler) outEdgesLocked(id TxID) []TxID {
	t := s.txs[id]
	if t == nil || t.waitingOn == "" {
		return nil
	}
	o := s.objs[t.waitingOn]
	for _, w := range o.queue {
		if w.tx == id {
			return s.blockersLocked(o, id, w.mode)
		}
	}
	return nil
}

// Read returns the transaction's view of the object (own write if present,
// else the committed value). Requires a lock in any mode.
func (s *Scheduler) Read(txID TxID, objID ObjectID) (sem.Value, error) {
	defer s.enter()()
	t, o, err := s.lookupLocked(txID, objID)
	if err != nil {
		return sem.Value{}, err
	}
	if _, ok := t.locks[objID]; !ok {
		return sem.Value{}, fmt.Errorf("%w: %s on %s", ErrNoLock, txID, objID)
	}
	if v, ok := t.writes[objID]; ok {
		return v, nil
	}
	return s.loadPermanentLocked(o)
}

// Write buffers a new value for the object. Requires the exclusive lock.
func (s *Scheduler) Write(txID TxID, objID ObjectID, v sem.Value) error {
	defer s.enter()()
	t, _, err := s.lookupLocked(txID, objID)
	if err != nil {
		return err
	}
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	if t.locks[objID] != Exclusive {
		return fmt.Errorf("%w: %s needs X on %s", ErrNoLock, txID, objID)
	}
	t.writes[objID] = v
	return nil
}

// Commit applies the buffered writes through the store and releases all
// locks. A store rejection (constraint violation) aborts instead.
func (s *Scheduler) Commit(txID TxID) error {
	defer s.enter()()
	t, ok := s.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	if s.store != nil && len(t.writes) > 0 {
		var writes []core.SSTWrite
		for objID, v := range t.writes {
			writes = append(writes, core.SSTWrite{Ref: s.objs[objID].ref, Value: v})
		}
		// t.writes is a map: restore the canonical StoreRef order so
		// concurrent commits acquire LDBS row locks without deadlocking.
		core.SortSSTWrites(writes)
		//lint:ignore gtmlint/monitorsafe the strict-2PL baseline intentionally holds the scheduler across the store apply: no lock may be granted until the writes are durable
		if err := s.store.ApplySST(writes); err != nil {
			s.finishAbortLocked(t, AbortStoreFailure)
			return fmt.Errorf("twopl: commit of %s: %w", txID, err)
		}
	}
	for objID, v := range t.writes {
		o := s.objs[objID]
		o.permanent = v
		o.permKnown = true
	}
	t.state = StateCommitted
	t.finished = s.clk.Now()
	s.stats.Committed++
	s.releaseAllLocked(t)
	return nil
}

// Abort rolls the transaction back, releasing its locks.
func (s *Scheduler) Abort(txID TxID, reason AbortReason) error {
	defer s.enter()()
	t, ok := s.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state == StateCommitted || t.state == StateAborted {
		return fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	s.finishAbortLocked(t, reason)
	return nil
}

func (s *Scheduler) finishAbortLocked(t *tx, reason AbortReason) {
	t.state = StateAborted
	t.reason = reason
	t.finished = s.clk.Now()
	t.writes = make(map[ObjectID]sem.Value)
	s.stats.Aborted++
	s.stats.AbortsBy[reason]++
	s.notifyTxLocked(t, Event{Type: EvAborted, Tx: t.id, Reason: reason})
	s.releaseAllLocked(t)
}

// releaseAllLocked frees every lock and queued request of t, then dispatches.
// Objects are visited in sorted order so runs are deterministic (the
// virtual-clock emulation depends on stable event ordering).
func (s *Scheduler) releaseAllLocked(t *tx) {
	for objID := range t.locks {
		o := s.objs[objID]
		delete(o.holders, t.id)
	}
	t.locks = make(map[ObjectID]Mode)
	for _, o := range s.sortedObjsLocked() {
		for i := 0; i < len(o.queue); {
			if o.queue[i].tx == t.id {
				o.queue = append(o.queue[:i], o.queue[i+1:]...)
				continue
			}
			i++
		}
		s.dispatchLocked(o)
	}
}

// sortedObjsLocked returns the objects in id order.
func (s *Scheduler) sortedObjsLocked() []*objState {
	out := make([]*objState, 0, len(s.objs))
	for _, o := range s.objs {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// dispatchLocked grants queued requests FIFO: the head and every subsequent
// request compatible with the holders and the requests granted before it.
func (s *Scheduler) dispatchLocked(o *objState) {
	for len(o.queue) > 0 {
		w := o.queue[0]
		t := s.txs[w.tx]
		if t == nil || t.state != StateWaiting {
			o.queue = o.queue[1:]
			continue
		}
		// The head only needs compatibility with the current holders (its
		// position already encodes FIFO fairness).
		for h, hm := range o.holders {
			if h != w.tx && !compatible(w.mode, hm) {
				return
			}
		}
		o.queue = o.queue[1:]
		s.grantLocked(o, t, w.mode)
		t.state = StateActive
		t.waitingOn = ""
		s.notifyTxLocked(t, Event{Type: EvGranted, Tx: t.id, Object: o.id})
	}
}

// Disconnect marks the transaction disconnected. Its locks remain held —
// the 2PL pathology — until Reconnect or a timeout abort.
func (s *Scheduler) Disconnect(txID TxID) error {
	defer s.enter()()
	t, ok := s.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state != StateActive && t.state != StateWaiting {
		return fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	t.disconnected = true
	t.disconnectedAt = s.clk.Now()
	return nil
}

// Reconnect clears the disconnected mark. ok=false reports that the
// transaction was aborted (e.g. by ExpireTimeouts) while away.
func (s *Scheduler) Reconnect(txID TxID) (ok bool, err error) {
	defer s.enter()()
	t, found := s.txs[txID]
	if !found {
		return false, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state == StateAborted {
		return false, nil
	}
	t.disconnected = false
	t.disconnectedAt = time.Time{}
	return true, nil
}

// ExpireTimeouts aborts every disconnected transaction away for longer than
// timeout, returning the victims. The supervision loop (or the simulator)
// calls this periodically — the paper's "abort percentage as a function of
// sleeping timeout".
func (s *Scheduler) ExpireTimeouts(timeout time.Duration) []TxID {
	defer s.enter()()
	now := s.clk.Now()
	var victims []TxID
	for _, t := range s.txs {
		if t.disconnected && (t.state == StateActive || t.state == StateWaiting) &&
			now.Sub(t.disconnectedAt) >= timeout {
			victims = append(victims, t.id)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, id := range victims {
		s.finishAbortLocked(s.txs[id], AbortTimeout)
	}
	return victims
}

// loadPermanentLocked reads the committed value, seeding the mirror from the
// store on first access.
func (s *Scheduler) loadPermanentLocked(o *objState) (sem.Value, error) {
	if o.permKnown {
		return o.permanent, nil
	}
	v := sem.Null()
	if s.store != nil {
		loaded, err := s.store.Load(o.ref)
		if err != nil {
			return sem.Value{}, err
		}
		v = loaded
	}
	o.permanent = v
	o.permKnown = true
	return v, nil
}

// TxState returns the transaction's current state.
func (s *Scheduler) TxState(txID TxID) (State, error) {
	defer s.enter()()
	t, ok := s.txs[txID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	return t.state, nil
}

// AbortReasonOf returns why a transaction aborted.
func (s *Scheduler) AbortReasonOf(txID TxID) (AbortReason, error) {
	defer s.enter()()
	t, ok := s.txs[txID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state != StateAborted {
		return 0, fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	return t.reason, nil
}

// Stats returns a copy of the counters.
func (s *Scheduler) Stats() Stats {
	defer s.enter()()
	out := s.stats
	out.AbortsBy = make(map[AbortReason]uint64, len(s.stats.AbortsBy))
	for k, v := range s.stats.AbortsBy {
		out.AbortsBy[k] = v
	}
	return out
}

// lookupLocked resolves a (transaction, object) pair.
func (s *Scheduler) lookupLocked(txID TxID, objID ObjectID) (*tx, *objState, error) {
	t, ok := s.txs[txID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	o, ok := s.objs[objID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	return t, o, nil
}
