package core

import (
	"time"

	"preserial/internal/clock"
	"preserial/internal/sem"
)

// ConflictFunc decides whether two invocations on the same object conflict.
// The default is sem.OpsConflict (Table I compatibility relaxed by logical
// dependence); the no-compatibility ablation replaces it with a classical
// read/write conflict test.
type ConflictFunc func(a, b sem.Op, deps *sem.Dependencies) bool

// options is the resolved manager configuration.
type options struct {
	clk                   clock.Clock
	detectDeadlocks       bool
	usePriorities         bool
	incompatibleWaiterCap int
	headroom              func(ObjectID, sem.Value) int
	denyHard              bool
	recordHistory         bool
	keepFullHistory       bool
	conflict              ConflictFunc
	sstRetries            int
	sstRetryFilter        func(error) bool
	sstWorkers            int
	sstQueueDepth         int
	sstBackoffBase        time.Duration
	sstBackoffCap         time.Duration
	sleep                 func(time.Duration)
	obs                   *Observability
}

func defaultOptions() options {
	return options{
		detectDeadlocks: true,
		conflict:        sem.OpsConflict,
	}
}

// Option configures a Manager.
type Option func(*options)

// WithClock replaces the wall clock (simulations pass clock.Simulator).
func WithClock(c clock.Clock) Option {
	return func(o *options) { o.clk = c }
}

// WithDeadlockDetection toggles wait-for-graph checking at invocation time
// (default on). With detection off, deadlocked transactions wait forever
// unless an external timeout aborts them — the paper's note that classical
// timeout techniques apply unchanged.
func WithDeadlockDetection(on bool) Option {
	return func(o *options) { o.detectDeadlocks = on }
}

// WithPriorities orders waiter admission by transaction priority (then
// arrival time) instead of pure FIFO — the first starvation remedy
// suggested in Section VII.
func WithPriorities() Option {
	return func(o *options) { o.usePriorities = true }
}

// WithIncompatibleWaiterCap enables the second Section VII starvation
// remedy: a compatible transaction is denied immediate admission to an
// object already held in its dependency group when at least n incompatible
// transactions are queued, so writers cannot be starved by an endless
// stream of compatible joiners.
func WithIncompatibleWaiterCap(n int) Option {
	return func(o *options) { o.incompatibleWaiterCap = n }
}

// WithHeadroom enables the Section VII abort-rate remedy: fn returns the
// maximum number of concurrent compatible updaters allowed on an object as
// a function of its current permanent value (e.g. FreeTickets itself, so no
// more subtracting transactions are admitted than tickets remain). A
// negative return means unlimited.
func WithHeadroom(fn func(obj ObjectID, permanent sem.Value) int) Option {
	return func(o *options) { o.headroom = fn }
}

// WithHardDenial makes policy denials (waiter cap, headroom) fail the
// Invoke call with ErrDenied instead of queuing the transaction.
func WithHardDenial() Option {
	return func(o *options) { o.denyHard = true }
}

// WithHistory records every committed per-object operation; required by the
// serialization-graph oracle and the experiment reports. The log is bounded:
// History returns at most the newest 65 536 entries (historyRetention), the
// oldest leaving 1 024 at a time.
func WithHistory() Option {
	return func(o *options) { o.recordHistory = true }
}

// WithFullHistory disables pruning of per-object committed histories (the
// X_committed/X_tc sets normally shrink to the earliest live A_tsleep).
func WithFullHistory() Option {
	return func(o *options) { o.keepFullHistory = true }
}

// WithSSTRetries makes the GTM retry a failed Secure System Transaction up
// to n times before aborting the transaction — the recovery strategy the
// paper's Section VII leaves to future work. filter selects retryable
// errors (nil retries everything); integrity-constraint violations should
// not be retried, transient substrate faults should.
func WithSSTRetries(n int, filter func(error) bool) Option {
	return func(o *options) {
		o.sstRetries = n
		o.sstRetryFilter = filter
	}
}

// WithSSTExecutor runs Secure System Transactions on a pool of `workers`
// goroutines behind a queue of `queueDepth` slots instead of on the
// committing client's goroutine, so RequestCommit (and Client.Commit's
// request phase) no longer blocks for the store round-trip or the retry
// loop. When the queue is full the submitting goroutine runs the SST
// itself — bounded-queue backpressure that degrades to the unpooled
// semantics rather than queueing without limit. Retries (WithSSTRetries)
// gain a capped exponential backoff with jitter (1ms base, 100ms cap; tune
// with WithSSTBackoff after this option).
//
// A worker that becomes free applies everything queued as one store
// transaction (one 2PL pass, one WAL fsync) when the store is a BatchStore.
// A transaction's outcome still arrives only after that store transaction
// durably commits; two queued transactions can never write the same store
// ref, because each holds its object's exclusive committer slot through
// publication; and a failed batch is re-applied one SST per transaction, so
// a constraint violation aborts only its own transaction.
//
// Managers created with an executor should be Closed when discarded.
// Without this option SSTs run as in the seed: on the goroutine that
// completed the commit, with immediate retries.
func WithSSTExecutor(workers, queueDepth int) Option {
	return func(o *options) {
		o.sstWorkers = workers
		o.sstQueueDepth = queueDepth
		if o.sstBackoffBase == 0 {
			o.sstBackoffBase = time.Millisecond
			o.sstBackoffCap = 100 * time.Millisecond
		}
	}
}

// WithSSTBackoff sets the retry backoff: capped exponential growth from
// base to cap with ±50% jitter. A zero base disables sleeping between
// retries (the default for unpooled managers).
func WithSSTBackoff(base, cap time.Duration) Option {
	return func(o *options) {
		o.sstBackoffBase = base
		o.sstBackoffCap = cap
	}
}

// WithSleepFunc replaces the real-time sleep used between SST retry
// attempts (default clock.Wall.Sleep). Simulations and tests inject a no-op
// or a virtual wait so retry backoff cannot stall a deterministic run on
// the wall clock.
func WithSleepFunc(fn func(time.Duration)) Option {
	return func(o *options) { o.sleep = fn }
}

// WithConflictFunc replaces the compatibility test. Used by the
// no-compatibility ablation, which passes StrictRWConflict.
func WithConflictFunc(fn ConflictFunc) Option {
	return func(o *options) { o.conflict = fn }
}

// StrictRWConflict is the classical conflict relation: two operations on
// dependent members conflict unless both are pure reads. Plugging it in
// via WithConflictFunc turns the GTM into a plain locking scheduler and
// isolates the value of semantic compatibility.
func StrictRWConflict(a, b sem.Op, deps *sem.Dependencies) bool {
	if !deps.Dependent(a.Member, b.Member) {
		return false
	}
	return a.Class != sem.Read || b.Class != sem.Read
}

// TxOption configures one transaction at Begin.
type TxOption func(*transaction)

// WithNotify sets the transaction's event listener.
func WithNotify(fn Notify) TxOption {
	return func(t *transaction) { t.notify = fn }
}

// WithPriority sets the transaction's admission priority (higher first;
// effective only on managers created WithPriorities).
func WithPriority(p int) TxOption {
	return func(t *transaction) { t.priority = p }
}
