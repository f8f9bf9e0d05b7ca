package core

import (
	"sync/atomic"
	"time"

	"preserial/internal/sem"
)

// waitEntry is one queued invocation on an object (an element of X_waiting,
// paired with A_twait). sleeping marks a waiter whose transaction sleeps:
// it keeps its place in the queue but is skipped by dispatch
// (X_waiting − X_sleeping).
type waitEntry struct {
	tx       TxID
	op       sem.Op
	since    time.Time
	priority int
	sleeping bool
}

// holderFlags places a holder in the paper's per-object transaction sets.
type holderFlags uint8

const (
	// holdPending: in X_pending — granted, working on its virtual copy.
	holdPending holderFlags = 1 << iota
	// holdCommitting: in X_committing — local commit done, X_new defined.
	holdCommitting
	// holdReleased: a read-class op whose pending slot was freed at local
	// commit but whose transaction has not yet published or aborted. It no
	// longer blocks admission (that is the point of the early release) but
	// stays visible to awakening sleepers, which would otherwise miss the
	// conflict in the window while the commit's SST runs on other objects.
	holdReleased
	// holdSleeping: in X_sleeping (always together with holdPending).
	holdSleeping
)

// holder is one transaction's granted invocation on an object: its place in
// X_pending / X_committing / X_sleeping (flags) and the per-transaction
// values X_read^A, A_temp^X and X_new^A. An object keeps its holders in one
// small slice in grant order — every consumer scans them linearly anyway,
// and an idle object carries no per-set maps.
type holder struct {
	tx    TxID
	op    sem.Op
	read  sem.Value // X_read^A: X_permanent at grant time
	temp  sem.Value // A_temp^X, while pending
	neu   sem.Value // X_new^A, while committing
	flags holderFlags
}

// blocks reports whether the holder is in (X_pending − X_sleeping) ∪
// X_committing, the set new admissions must be compatible with.
func (h *holder) blocks() bool {
	return h.flags&holdCommitting != 0 || h.flags&(holdPending|holdSleeping) == holdPending
}

// member is one data member of an object: its backing store location, the
// X_permanent mirror and the committed version chain. name, ref, backed and
// next never change once the member is linked, so the snapshot read path
// walks the list and the chain without the monitor; perm and known belong
// to the monitor.
type member struct {
	name   string
	ref    StoreRef
	backed bool      // ref names a store location (false: purely virtual)
	known  bool      // perm loaded?
	perm   sem.Value // X_permanent (mirror)
	ch     chain
	next   *member
}

// object carries the per-object state of Section IV: the members with their
// X_permanent mirrors, the holders (pending, committing and sleeping sets
// with their read/temp/new values) and the wait queue. X_committed is not
// kept: a commit dooms the sleepers it conflicts with as it publishes
// (Manager.doomSleepersLocked), so no later check asks what committed.
// Everything but the member list is guarded by the Manager's monitor.
type object struct {
	id       ObjectID
	conflict ConflictFunc
	deps     *sem.Dependencies

	// members is a singly linked list: registered members in name order,
	// then (prepended) members first touched without a registration. A
	// list, not a slice, so a member can be added while snapshot readers
	// walk it.
	members atomic.Pointer[member]

	holders []holder     // X_pending ∪ X_committing ∪ released reads
	waiting []*waitEntry // X_waiting in arrival order
	commitQ []TxID       // transactions queued for the committer slot
}

// member returns the named member, nil when it was neither registered nor
// touched yet. Safe without the monitor.
func (o *object) member(name string) *member {
	for mb := o.members.Load(); mb != nil; mb = mb.next {
		if mb.name == name {
			return mb
		}
	}
	return nil
}

// ensureMember returns the named member, linking a virtual (unbacked) one
// on first touch. Caller holds the monitor.
func (o *object) ensureMember(name string) *member {
	if mb := o.member(name); mb != nil {
		return mb
	}
	mb := &member{name: name, next: o.members.Load()}
	o.members.Store(mb)
	return mb
}

// holder returns tx's holder entry, if any. The pointer is valid until the
// holder slice next changes.
func (o *object) holder(tx TxID) *holder {
	for i := range o.holders {
		if o.holders[i].tx == tx {
			return &o.holders[i]
		}
	}
	return nil
}

// pendingHolder returns tx's holder when it is in X_pending.
func (o *object) pendingHolder(tx TxID) *holder {
	if h := o.holder(tx); h != nil && h.flags&holdPending != 0 {
		return h
	}
	return nil
}

// removeHolder drops tx's holder, keeping grant order. The backing array
// is released with the last holder so an idle object stays small.
func (o *object) removeHolder(tx TxID) {
	for i := range o.holders {
		if o.holders[i].tx != tx {
			continue
		}
		last := len(o.holders) - 1
		copy(o.holders[i:], o.holders[i+1:])
		o.holders[last] = holder{}
		o.holders = o.holders[:last]
		if last == 0 {
			o.holders = nil
		}
		return
	}
}

// hasCommitter reports whether the exclusive committer slot is taken.
func (o *object) hasCommitter() bool {
	for i := range o.holders {
		if o.holders[i].flags&holdCommitting != 0 {
			return true
		}
	}
	return false
}

// setSleeping moves tx into or out of X_sleeping, whether it holds the
// object or waits for it.
func (o *object) setSleeping(tx TxID, sleeping bool) {
	if h := o.pendingHolder(tx); h != nil {
		if sleeping {
			h.flags |= holdSleeping
		} else {
			h.flags &^= holdSleeping
		}
	}
	if w := o.waiterFor(tx); w != nil {
		w.sleeping = sleeping
	}
}

// holdersConflicting reports whether op by tx conflicts with any holder in
// (X_pending − X_sleeping) ∪ X_committing — the admission precondition of
// Algorithm 2.
func (o *object) holdersConflicting(tx TxID, op sem.Op) bool {
	for i := range o.holders {
		h := &o.holders[i]
		if h.tx != tx && h.blocks() && o.conflict(op, h.op, o.deps) {
			return true
		}
	}
	return false
}

// conflictingHolders lists the holders that block op (for the wait-for
// graph).
func (o *object) conflictingHolders(tx TxID, op sem.Op) []TxID {
	var out []TxID
	for i := range o.holders {
		h := &o.holders[i]
		if h.tx != tx && h.blocks() && o.conflict(op, h.op, o.deps) {
			out = append(out, h.tx)
		}
	}
	return out
}

// sleepConflict is the awake-time half of Algorithm 9 for one object: a
// conflict with any transaction currently in X_pending ∪ X_committing (or
// holding a released read). The other half, a conflicting commit during
// the sleep, was decided when that commit published (doomSleepersLocked).
func (o *object) sleepConflict(tx TxID, op sem.Op) bool {
	for i := range o.holders {
		h := &o.holders[i]
		if h.tx != tx && o.conflict(op, h.op, o.deps) {
			return true
		}
	}
	return false
}

// compatibleUpdaters counts non-sleeping pending and committing holders
// whose ops update the same dependency group as op (the headroom extension
// caps this count).
func (o *object) compatibleUpdaters(tx TxID, op sem.Op) int {
	n := 0
	for i := range o.holders {
		h := &o.holders[i]
		if h.tx != tx && h.blocks() && h.op.Class.IsUpdate() && o.deps.Dependent(h.op.Member, op.Member) {
			n++
		}
	}
	return n
}

// holderless reports whether the object currently has no non-sleeping
// holder whose op shares op's dependency group — used by the starvation
// extension, which only defers compatible *joins* (the first holder is
// always admitted).
func (o *object) holderless(op sem.Op, tx TxID) bool {
	for i := range o.holders {
		h := &o.holders[i]
		if h.tx != tx && h.blocks() && o.deps.Dependent(h.op.Member, op.Member) {
			return false
		}
	}
	return true
}

// incompatibleWaitersAhead counts queued invocations that conflict with op
// and sit ahead of `self` in the queue (all of them when self is nil, i.e.
// for a fresh arrival). The starvation-control extension denies compatible
// admissions past a cap — but only defers to incompatible transactions that
// were already waiting, otherwise a late incompatible arrival would
// serialize the whole batch queued before it.
func (o *object) incompatibleWaitersAhead(op sem.Op, self *waitEntry) int {
	n := 0
	for _, w := range o.waiting {
		if w == self {
			break
		}
		if o.conflict(op, w.op, o.deps) {
			n++
		}
	}
	return n
}

// removeWaiter drops tx from the wait queue, returning its entry.
func (o *object) removeWaiter(tx TxID) *waitEntry {
	for i, w := range o.waiting {
		if w.tx == tx {
			o.waiting = append(o.waiting[:i], o.waiting[i+1:]...)
			if len(o.waiting) == 0 {
				o.waiting = nil
			}
			return w
		}
	}
	return nil
}

// waiterFor returns tx's queue entry, if any.
func (o *object) waiterFor(tx TxID) *waitEntry {
	for _, w := range o.waiting {
		if w.tx == tx {
			return w
		}
	}
	return nil
}

// removeFromCommitQ drops tx from the committer-slot queue.
func (o *object) removeFromCommitQ(tx TxID) {
	for i, id := range o.commitQ {
		if id == tx {
			o.commitQ = append(o.commitQ[:i], o.commitQ[i+1:]...)
			return
		}
	}
}

// dropTx removes every trace of tx from the object (abort cleanup).
func (o *object) dropTx(tx TxID) {
	o.removeHolder(tx)
	o.removeWaiter(tx)
	o.removeFromCommitQ(tx)
}
