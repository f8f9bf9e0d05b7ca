// Package core implements the paper's primary contribution: the Global
// Transaction Manager (GTM), a hybrid optimistic/pessimistic concurrency
// controller that pre-serializes long-running transactions.
//
// Transactions operate on virtual copies of object data members (A_temp);
// operations of compatible semantic classes (internal/sem, Table I) share an
// object concurrently, and a reconciliation algorithm merges their effects
// at commit time. Disconnected or idle transactions become Sleeping instead
// of being aborted; on awakening they resume if no incompatible operation
// touched their objects in the meantime, and abort otherwise (Algorithm 9).
// Commits are funneled, one committer per object at a time, into Secure
// System Transactions executed against the LDBS substrate, which enforces
// integrity constraints and durability.
//
// The Manager is a monitor driven by events — the package mirrors the
// event-based model of Section IV: ⟨begin,A⟩, ⟨op,X,A⟩, ⟨commit,X,A⟩,
// ⟨commit,A⟩, ⟨abort,X,A⟩, ⟨abort,A⟩, ⟨sleep,·⟩, ⟨awake,·⟩ and ⟨unlock,X⟩
// map to Begin, Invoke, the two commit phases inside RequestCommit, Abort,
// Sleep, Awake and the internal dispatch step.
//
// What the Manager retains is bounded by what is in use. An idle object
// costs a few hundred bytes; a transaction shrinks to its id, outcome and
// object list when it turns terminal, and the registry keeps only the most
// recent 16 384 terminal transactions (terminalRetention) — older ones are
// retired first-in first-out and then answer ErrUnknownTx, exactly as after
// Forget, which remains for callers that want an id back at once. Per-object
// commit histories and version chains are pruned behind the GC horizon (the
// oldest sleeper or open snapshot) by work proportional to the commits
// published, not to the number of registered objects.
package core

import (
	"errors"
	"fmt"
)

// TxID identifies a transaction. IDs are caller-assigned (the middleware
// layer derives them from client sessions).
type TxID string

// ObjectID identifies a database object managed by the GTM.
type ObjectID string

// State is the operating state of a transaction (Section IV). Switches
// over it must be exhaustive — a new state must not fall through the
// sleep/awake/abort logic silently (enforced by gtmlint/statexhaustive).
//
//gtmlint:exhaustive
type State uint8

// Transaction states.
const (
	// StateActive: the transaction is running normally.
	StateActive State = iota
	// StateWaiting: the transaction is blocked on an object lock.
	StateWaiting
	// StateSleeping: the transaction is disconnected or idle.
	StateSleeping
	// StateCommitting: commit requested, the SST has not yet finished.
	StateCommitting
	// StateAborting: abort requested, cleanup in progress.
	StateAborting
	// StateCommitted: terminal success.
	StateCommitted
	// StateAborted: terminal failure.
	StateAborted
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "Active"
	case StateWaiting:
		return "Waiting"
	case StateSleeping:
		return "Sleeping"
	case StateCommitting:
		return "Committing"
	case StateAborting:
		return "Aborting"
	case StateCommitted:
		return "Committed"
	case StateAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateCommitted || s == StateAborted }

// AbortReason classifies why a transaction aborted.
//
//gtmlint:exhaustive
type AbortReason uint8

// Abort reasons.
const (
	// AbortUser: the client requested the abort.
	AbortUser AbortReason = iota
	// AbortSleepConflict: an incompatible operation was admitted or
	// committed while the transaction slept (Algorithm 9, third case).
	AbortSleepConflict
	// AbortSSTFailure: the Secure System Transaction was rejected by the
	// LDBS (e.g. integrity constraint violation during reconciliation).
	AbortSSTFailure
	// AbortDeadlock: the invocation would have closed a wait-for cycle.
	AbortDeadlock
	// AbortTimeout: a supervision policy (e.g. the baseline's sleeping
	// timeout) killed the transaction.
	AbortTimeout
	// AbortResumeFailure: re-granting a queued invocation failed because
	// the permanent value could not be loaded from the store (Awake
	// phase 2, or waiter dispatch). No SST ran.
	AbortResumeFailure
	// AbortCoordinator: a cross-shard commit coordinator decided abort
	// after this participant had prepared (another participant failed to
	// prepare, or validation rejected the combined write set).
	AbortCoordinator

	// numAbortReasons sizes per-reason tables; keep it last.
	numAbortReasons
)

// String names the reason.
func (r AbortReason) String() string {
	switch r {
	case AbortUser:
		return "user"
	case AbortSleepConflict:
		return "sleep-conflict"
	case AbortSSTFailure:
		return "sst-failure"
	case AbortDeadlock:
		return "deadlock"
	case AbortTimeout:
		return "timeout"
	case AbortResumeFailure:
		return "resume-failure"
	case AbortCoordinator:
		return "coordinator"
	default:
		return fmt.Sprintf("AbortReason(%d)", uint8(r))
	}
}

// EventType discriminates notifications delivered to transaction listeners.
//
//gtmlint:exhaustive
type EventType uint8

// Notification types.
const (
	// EvGranted: a queued invocation has been granted; the virtual copy is
	// ready.
	EvGranted EventType = iota
	// EvCommitted: the global commit finished; changes are durable.
	EvCommitted
	// EvAborted: the transaction reached StateAborted.
	EvAborted
	// EvPrepared: the transaction holds every committer slot and its SST
	// write set is staged; it now waits for a coordinator's Decide. Only
	// PrepareCommit (the cross-shard commit path) produces this.
	EvPrepared
)

// String names the event type.
func (e EventType) String() string {
	switch e {
	case EvGranted:
		return "granted"
	case EvCommitted:
		return "committed"
	case EvAborted:
		return "aborted"
	case EvPrepared:
		return "prepared"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(e))
	}
}

// Event is an asynchronous notification about a transaction.
type Event struct {
	Type   EventType
	Tx     TxID
	Object ObjectID    // set for EvGranted
	Reason AbortReason // set for EvAborted
	Err    error       // set for EvAborted when a substrate error caused it
}

// Notify receives events for one transaction. Handlers are invoked outside
// the manager's critical section and may call back into the Manager.
type Notify func(Event)

// Errors reported by the GTM.
var (
	ErrUnknownTx     = errors.New("core: unknown transaction")
	ErrUnknownObject = errors.New("core: unknown object")
	ErrBadState      = errors.New("core: operation illegal in current state")
	ErrTxExists      = errors.New("core: transaction id already in use")
	ErrObjectExists  = errors.New("core: object id already registered")
	ErrNotInvoked    = errors.New("core: no granted invocation on object")
	ErrOpClass       = errors.New("core: operation not allowed for class")
	ErrDeadlock      = errors.New("core: deadlock detected")
	ErrOneOpPerObj   = errors.New("core: transaction already has an invocation on object")
	ErrDenied        = errors.New("core: invocation denied by admission policy")
)
