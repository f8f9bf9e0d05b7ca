package core

import (
	"sort"
	"time"

	"preserial/internal/sem"
)

// transaction is the Manager's per-transaction record. The fields here are
// what survives the terminal transition — enough to answer TxState, TxInfo
// and Age until the record is forgotten or retired (see TerminalRetention).
// Everything a transaction needs only while it lives sits behind txLive and
// is dropped the moment it commits or aborts.
type transaction struct {
	id       TxID
	state    State
	reason   AbortReason
	priority int
	lastErr  error
	began    time.Time
	finished time.Time

	// objects lists every object the transaction touched. While the
	// transaction is Active, Waiting or Sleeping these are exactly the
	// objects it holds or queues on.
	objects []*object

	*txLive // nil once the transaction is terminal
}

// txLive is the state of a transaction that has not finished: the global
// state of Section IV (A_tsleep, A_twait; A_temp lives on the objects) plus
// bookkeeping for the two-phase commit over multiple objects.
type txLive struct {
	notify Notify

	twait  time.Time // A_twait
	tsleep time.Time // A_tsleep

	// doomedBy names the first commit that published an op conflicting
	// with one of this sleeper's (Algorithm 9's X_tc > A_tsleep case, set
	// by doomSleepersLocked); the awake that follows aborts. Empty while
	// no such commit has published.
	doomedBy TxID

	lastActivity time.Time // most recent client interaction (for the idle oracle)

	// Commit progress: commitWant holds the objects still needing their
	// committer slot (in canonical order); commitHeld the slots acquired,
	// in the same order; sstInFlight marks the window where the SST runs
	// outside the monitor (the commit point: aborts are no longer
	// possible).
	commitWant  []*object
	commitHeld  []*object
	readLocals  []localWrite // read-class payloads released at local commit
	sstInFlight bool
	commitStart time.Time // RequestCommit time, for the commit-latency histogram
	sstStart    time.Time // SST launch time, for the SST-latency histogram

	// Two-phase (cross-shard) commit: preparing marks a PrepareCommit in
	// progress; once every committer slot is held the write set is staged
	// here instead of launching the SST, prepared flips true and the
	// transaction is in doubt until the coordinator's Decide.
	preparing    bool
	prepared     bool
	stagedLocals []localWrite
	stagedWrites []SSTWrite
}

func newTransaction(id TxID, now time.Time) *transaction {
	return &transaction{
		id:     id,
		state:  StateActive,
		began:  now,
		txLive: &txLive{lastActivity: now},
	}
}

// inDoubt reports whether the transaction sits at the prepared barrier.
func (t *transaction) inDoubt() bool { return t.txLive != nil && t.prepared }

// info renders the externally visible snapshot.
func (t *transaction) info() TxInfo {
	objs := make([]ObjectID, len(t.objects))
	for i, o := range t.objects {
		objs[i] = o.id
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	ti := TxInfo{
		ID: t.id, State: t.state, Began: t.began, Finished: t.finished,
		Reason: t.reason, Err: t.lastErr, Objects: objs, Priority: t.priority,
	}
	if t.txLive != nil {
		ti.Sleeping = t.tsleep
	}
	return ti
}

// legalTransition encodes the transaction state machine S(A). Self
// transitions are implicit.
var legalTransition = map[State][]State{
	StateActive:     {StateWaiting, StateSleeping, StateCommitting, StateAborting, StateAborted},
	StateWaiting:    {StateActive, StateSleeping, StateAborting, StateAborted},
	StateSleeping:   {StateActive, StateWaiting, StateAborting, StateAborted},
	StateCommitting: {StateCommitted, StateAborting, StateAborted},
	StateAborting:   {StateAborted},
}

// canTransition reports whether from → to is a legal state change.
func canTransition(from, to State) bool {
	if from == to {
		return true
	}
	for _, s := range legalTransition[from] {
		if s == to {
			return true
		}
	}
	return false
}

// TxInfo is the externally visible snapshot of a transaction.
type TxInfo struct {
	ID       TxID
	State    State
	Began    time.Time
	Finished time.Time
	Sleeping time.Time // A_tsleep, zero unless sleeping
	Reason   AbortReason
	Err      error
	Objects  []ObjectID
	Priority int
}

// HistoryEntry records one committed per-object operation, the raw material
// for the serialization-graph oracle and the experiment reports.
type HistoryEntry struct {
	Tx     TxID
	Object ObjectID
	Op     sem.Op
	Read   sem.Value // X_read^A at grant time
	New    sem.Value // X_new^A written by the SST
	TC     time.Time // commit time
}
