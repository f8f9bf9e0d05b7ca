package core

import (
	"sync/atomic"
	"time"

	"preserial/internal/obs"
)

// Observability is the GTM's live metric set: the run-time counterparts of
// the quantities Section V of the paper evaluates offline (conflict rate,
// abort rate, sleep/awake outcomes), plus latency histograms for the commit
// pipeline. Counters and histograms are lock-free atomics the Manager
// updates inside its critical sections (one atomic add each, no
// allocation); the trace ring is fed through the monitor's notification
// queue, so trace appends never extend a critical section.
//
// A Manager without WithObservability pays nothing: every instrumentation
// site is a single nil check.
type Observability struct {
	trace *obs.TraceRing

	begun     *obs.Counter // gtm_tx_begun_total
	admits    *obs.Counter // gtm_invocations_admitted_total
	waits     *obs.Counter // gtm_invocations_waited_total
	conflicts *obs.Counter // gtm_conflicts_total
	denied    *obs.Counter // gtm_admissions_denied_total

	sleeps        *obs.Counter // gtm_sleeps_total
	awakesResumed *obs.Counter // gtm_awakes_total{outcome="resumed"}
	awakesAborted *obs.Counter // gtm_awakes_total{outcome="aborted"}

	commits     *obs.Counter // gtm_commits_total
	prepares    *obs.Counter // gtm_tx_prepared_total
	reconciled  *obs.Counter // gtm_reconciliations_total
	ssts        *obs.Counter // gtm_sst_total{outcome="ok"}
	sstFailures *obs.Counter // gtm_sst_total{outcome="failed"}

	aborts [numAbortReasons]*obs.Counter // gtm_aborts_total{reason=...}

	sstRetries *obs.Counter // gtm_sst_retries_total
	sstQueue   atomic.Int64 // gtm_sst_queue_depth (fed by the SST executor)

	gcQueueDepth     atomic.Int64 // gtm_gc_queue_depth (horizon-queue entries not yet due)
	terminalRetained atomic.Int64 // gtm_terminal_retained (terminal transactions in the registry)

	monitorEntries *obs.Counter // gtm_monitor_entries_total

	mvccReads      *obs.Counter // mvcc_snapshot_reads_total
	mvccFallbacks  *obs.Counter // mvcc_snapshot_fallbacks_total
	mvccOpened     *obs.Counter // mvcc_snapshots_opened_total
	mvccClosed     *obs.Counter // mvcc_snapshots_closed_total
	mvccInstalled  *obs.Counter // mvcc_versions_installed_total
	mvccGCed       *obs.Counter // mvcc_versions_gced_total
	mvccHorizonLag atomic.Int64 // mvcc_gc_horizon_lag (commitSeq − GC horizon)

	sstBatches        *obs.Counter // gtm_sst_batches_total
	sstBatchTxs       *obs.Counter // gtm_sst_batch_txs_total
	sstBatchFallbacks *obs.Counter // gtm_sst_batch_fallbacks_total

	commitLatency *obs.Histogram // gtm_commit_seconds
	invokeWait    *obs.Histogram // gtm_invoke_wait_seconds
	sstLatency    *obs.Histogram // gtm_sst_seconds
}

// NewObservability registers the GTM metric set in reg and allocates a
// trace ring retaining the last traceDepth transaction events (0 disables
// tracing). Registration is idempotent per registry.
func NewObservability(reg *obs.Registry, traceDepth int) *Observability {
	o := &Observability{
		begun:     reg.Counter(obs.NameTxBegun, "Transactions begun."),
		admits:    reg.Counter(obs.NameInvocationsAdmitted, "Invocations granted, immediately or after a wait."),
		waits:     reg.Counter(obs.NameInvocationsWaited, "Invocations that had to queue."),
		conflicts: reg.Counter(obs.NameConflicts, "Invocations blocked by a semantic conflict with a live holder."),
		denied:    reg.Counter(obs.NameAdmissionsDenied, "Admissions refused by Section VII extension policies."),

		sleeps:        reg.Counter(obs.NameSleeps, "Transactions put to sleep (disconnection or idleness)."),
		awakesResumed: reg.Counter(obs.WithLabel(obs.NameAwakes, "outcome", "resumed"), "Awakenings by outcome (Algorithm 9)."),
		awakesAborted: reg.Counter(obs.WithLabel(obs.NameAwakes, "outcome", "aborted"), "Awakenings by outcome (Algorithm 9)."),

		commits:     reg.Counter(obs.NameCommits, "Transactions committed."),
		prepares:    reg.Counter(obs.NameTxPrepared, "Transactions that reached the prepared (in-doubt) barrier."),
		reconciled:  reg.Counter(obs.NameReconciliations, "Commits whose reconciled X_new differed from A_temp."),
		ssts:        reg.Counter(obs.WithLabel(obs.NameSST, "outcome", "ok"), "Secure System Transactions by outcome."),
		sstFailures: reg.Counter(obs.WithLabel(obs.NameSST, "outcome", "failed"), "Secure System Transactions by outcome."),

		sstRetries: reg.Counter(obs.NameSSTRetries, "Secure System Transaction retry attempts."),

		monitorEntries: reg.Counter(obs.NameMonitorEntries, "GTM monitor critical sections entered."),

		mvccReads:     reg.Counter(obs.NameMVCCSnapshotReads, "Snapshot reads served from version chains (monitor-free path)."),
		mvccFallbacks: reg.Counter(obs.NameMVCCSnapshotFallbacks, "Snapshot reads that fell back to the monitor."),
		mvccOpened:    reg.Counter(obs.NameMVCCSnapshotsOpened, "Read-only snapshots opened."),
		mvccClosed:    reg.Counter(obs.NameMVCCSnapshotsClosed, "Read-only snapshots closed."),
		mvccInstalled: reg.Counter(obs.NameMVCCVersionsInstalled, "Version-chain nodes installed at publish."),
		mvccGCed:      reg.Counter(obs.NameMVCCVersionsGCed, "Version-chain nodes unlinked by horizon GC."),

		sstBatches:        reg.Counter(obs.NameSSTBatches, "SST groups applied: one per executor queue drain or inline SST."),
		sstBatchTxs:       reg.Counter(obs.NameSSTBatchTxs, "Transactions carried by applied SST groups."),
		sstBatchFallbacks: reg.Counter(obs.NameSSTBatchFallbacks, "Batched store transactions that failed and were re-applied one SST per transaction."),

		commitLatency: reg.Histogram(obs.NameCommitSeconds, "Latency from commit request to publication.", nil),
		invokeWait:    reg.Histogram(obs.NameInvokeWaitSeconds, "Queue time of invocations granted after a wait.", nil),
		sstLatency:    reg.Histogram(obs.NameSSTSeconds, "Secure System Transaction execution latency.", nil),
	}
	reg.GaugeFunc(obs.NameSSTQueueDepth, "Secure System Transactions queued for the executor.",
		func() float64 { return float64(o.sstQueue.Load()) })
	reg.GaugeFunc(obs.NameGCQueueDepth, "Committed operations queued for history pruning and version GC behind the horizon.",
		func() float64 { return float64(o.gcQueueDepth.Load()) })
	reg.GaugeFunc(obs.NameTerminalRetained, "Terminal transactions still answerable from the registry (bounded; oldest retired first).",
		func() float64 { return float64(o.terminalRetained.Load()) })
	reg.GaugeFunc(obs.NameMVCCGCHorizonLag, "Commit sequences between the head and the version-GC horizon.",
		func() float64 { return float64(o.mvccHorizonLag.Load()) })
	for r := AbortUser; r < numAbortReasons; r++ {
		o.aborts[r] = reg.Counter(obs.WithLabel(obs.NameAborts, "reason", r.String()), "Aborts by reason.")
	}
	if traceDepth > 0 {
		o.trace = obs.NewTraceRing(traceDepth)
	}
	return o
}

// Trace returns the transaction-event ring (nil when tracing is disabled).
func (o *Observability) Trace() *obs.TraceRing { return o.trace }

// WithObservability attaches a live metric set to the Manager. Without it
// the Manager keeps only its monitor-protected Stats.
func WithObservability(o *Observability) Option {
	return func(opts *options) { opts.obs = o }
}

// traceLocked queues a trace append for delivery after the current
// critical section — the monitor notification hook the ring is fed from.
// Must be called while holding the monitor.
func (m *Manager) traceLocked(kind string, t *transaction, object ObjectID, from, to State, detail string) {
	if m.obs == nil || m.obs.trace == nil {
		return
	}
	ev := obs.TraceEvent{
		At:     m.clk.Now(),
		Tx:     string(t.id),
		Kind:   kind,
		Object: string(object),
		Detail: detail,
	}
	if kind == "state" {
		ev.From = from.String()
		ev.To = to.String()
	}
	ring := m.obs.trace
	m.mon.queue(func() { ring.Add(ev) })
}

// observeAbort bumps the per-reason abort counter.
func (o *Observability) observeAbort(reason AbortReason) {
	if int(reason) < len(o.aborts) && o.aborts[reason] != nil {
		o.aborts[reason].Inc()
	}
}

// sinceIfSet observes now−start on h when start is set (guards first-use
// paths where a timestamp may be zero).
func sinceIfSet(h *obs.Histogram, start, now time.Time) {
	if !start.IsZero() && now.After(start) {
		h.Observe(now.Sub(start))
	}
}
