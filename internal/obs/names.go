package obs

import "fmt"

// Metric name registry. Every series exposed on /metrics is declared here
// — and only here. Call sites pass these constants (or WithLabel on one)
// to Registry.Counter/Histogram/GaugeFunc; gtmlint/metricnames rejects
// ad-hoc string literals, so this block and docs/OBSERVABILITY.md cannot
// drift from the code.
const (
	// GTM core (internal/core).
	NameTxBegun             = "gtm_tx_begun_total"
	NameInvocationsAdmitted = "gtm_invocations_admitted_total"
	NameInvocationsWaited   = "gtm_invocations_waited_total"
	NameConflicts           = "gtm_conflicts_total"
	NameAdmissionsDenied    = "gtm_admissions_denied_total"
	NameSleeps              = "gtm_sleeps_total"
	NameAwakes              = "gtm_awakes_total" // labeled outcome="resumed"|"aborted"
	NameCommits             = "gtm_commits_total"
	NameReconciliations     = "gtm_reconciliations_total"
	NameSST                 = "gtm_sst_total"    // labeled outcome="ok"|"failed"
	NameAborts              = "gtm_aborts_total" // labeled reason=<AbortReason>
	NameSSTRetries          = "gtm_sst_retries_total"
	NameSSTQueueDepth       = "gtm_sst_queue_depth"
	NameCommitSeconds       = "gtm_commit_seconds"
	NameInvokeWaitSeconds   = "gtm_invoke_wait_seconds"
	NameSSTSeconds          = "gtm_sst_seconds"
	NameTransactionsLive    = "gtm_transactions_live"
	NameDrainSleeping       = "gtm_drain_sleeping_total"
	NameTxPrepared          = "gtm_tx_prepared_total"
	NameMonitorEntries      = "gtm_monitor_entries_total"
	NameGCQueueDepth        = "gtm_gc_queue_depth"    // gauge: horizon-queue entries awaiting the GC horizon
	NameTerminalRetained    = "gtm_terminal_retained" // gauge: terminal transactions still in the registry

	// Multiversion read path (internal/core). Snapshot reads walk committed
	// version chains without entering the GTM monitor; comparing
	// mvcc_snapshot_reads_total against gtm_monitor_entries_total is how the
	// read-mostly benchmark asserts the path really is monitor-free.
	NameMVCCSnapshotReads     = "mvcc_snapshot_reads_total"
	NameMVCCSnapshotFallbacks = "mvcc_snapshot_fallbacks_total"
	NameMVCCSnapshotsOpened   = "mvcc_snapshots_opened_total"
	NameMVCCSnapshotsClosed   = "mvcc_snapshots_closed_total"
	NameMVCCVersionsInstalled = "mvcc_versions_installed_total"
	NameMVCCVersionsGCed      = "mvcc_versions_gced_total"
	NameMVCCGCHorizonLag      = "mvcc_gc_horizon_lag" // gauge: commitSeq − GC horizon

	// SST batching (internal/core). An executor worker applies everything
	// queued when it becomes free as one store transaction (one 2PL pass,
	// one fsync); txs / batches is the mean batch.
	NameSSTBatches        = "gtm_sst_batches_total"         // groups applied (queue drains and inline SSTs)
	NameSSTBatchTxs       = "gtm_sst_batch_txs_total"       // transactions carried by those groups
	NameSSTBatchFallbacks = "gtm_sst_batch_fallbacks_total" // batches re-applied one SST at a time

	// Local database system (internal/ldbs).
	NameLDBSDeadlocks       = "ldbs_deadlocks_total"
	NameLDBSLockWaits       = "ldbs_lock_waits_total"
	NameLDBSLockWaitSeconds = "ldbs_lock_wait_seconds"
	NameWALFsyncs           = "ldbs_wal_fsyncs_total"
	NameWALFsyncSeconds     = "ldbs_wal_fsync_seconds"
	NameWALRecords          = "ldbs_wal_records_total"
	NameWALGroupCommitBatch = "ldbs_group_commit_batch_size"

	// Wire layer (internal/wire).
	NameWireConnections       = "wire_connections_total"
	NameWireConnectionsActive = "wire_connections_active"
	NameWireFramesIn          = "wire_frames_in_total"
	NameWireFramesOut         = "wire_frames_out_total"
	NameWireRequestErrors     = "wire_request_errors_total"
	NameWireReplayedResponses = "wire_replayed_responses_total"
	NameWireRequestSeconds    = "wire_request_seconds"
	NameWireRequests          = "wire_requests_total" // labeled op=<wire.Op>
	NameWireReconnects        = "wire_reconnects_total"
	NameWireClientRetries     = "wire_client_retries_total"

	// Shard cluster (internal/shard).
	NameShardCommits        = "shard_commits_total" // labeled path="single"|"cross", plus shard=<index> for per-shard counts
	NameShard2PCPrepares    = "shard_2pc_prepares_total"
	NameShard2PCDecides     = "shard_2pc_decides_total" // labeled decision="commit"|"abort"
	NameShard2PCDecideFails = "shard_2pc_decide_failures_total"
	NameShard2PCReplays     = "shard_2pc_replays_total"
	NameShard2PCInDoubt     = "shard_2pc_in_doubt"
	NameShardTxLive         = "shard_transactions_live" // labeled shard=<index>
	NameShardObjects        = "shard_objects"           // labeled shard=<index>

	// WAL replication (internal/ldbs + internal/shard). One primary LDBS
	// ships sealed WAL frames to a follower; see docs/REPLICATION.md.
	NameReplFramesShipped    = "repl_frames_shipped_total"    // frame batches sent to a follower
	NameReplBytesShipped     = "repl_bytes_shipped_total"     // WAL bytes sent to a follower
	NameReplTxsApplied       = "repl_txs_applied_total"       // committed tx groups applied by a follower
	NameReplResyncs          = "repl_snapshot_resyncs_total"  // full snapshot catch-ups served
	NameReplFenceRejects     = "repl_fence_rejects_total"     // stale-epoch peers refused
	NameReplSemisyncTimeouts = "repl_semisync_timeouts_total" // ack waits that degraded to async
	NameReplLagBytes         = "repl_lag_bytes"               // gauge: published-but-unacked WAL bytes (labeled shard=<index>)
	NameReplLagSeconds       = "repl_lag_seconds"             // gauge: age of oldest unacked frame (labeled shard=<index>)
	NameReplAckedLSN         = "repl_acked_lsn"               // gauge: highest follower-acked LSN (labeled shard=<index>)
	NameShardPromotions      = "shard_promotions_total"       // followers promoted to primary
	NameShardHeartbeatMisses = "shard_heartbeat_misses_total" // failure-detector probes that failed

	// Gateway tier (internal/gateway). See docs/GATEWAY.md for the
	// saturation runbook these feed.
	NameGwSessionsActive   = "gw_sessions_active"         // gauge: sessions bound to a connection
	NameGwSessionsParked   = "gw_sessions_parked"         // gauge: sessions in the parked table
	NameGwParkedBytes      = "gw_parked_session_bytes"    // gauge: estimated bytes held by parked sessions
	NameGwAttaches         = "gw_session_attaches_total"  // labeled kind="new"|"resume"
	NameGwParks            = "gw_session_parks_total"     // labeled cause="detach"|"disconnect"
	NameGwSessionsExpired  = "gw_sessions_expired_total"  // parked sessions reaped by retention
	NameGwAdmissionRejects = "gw_admission_rejects_total" // labeled reason="quota"|"tenant"|"lane"|"sessions"
	NameGwDispatches       = "gw_dispatches_total"        // requests run through dispatch lanes
	NameGwLaneDepth        = "gw_lane_queue_depth"        // gauge: queued requests across all lanes
	NameGwDispatchSeconds  = "gw_dispatch_seconds"        // histogram: enqueue → response written

	// Storage drivers (internal/ldbs/store). One family serves every
	// driver; purely in-memory drivers leave the page/cache series at
	// zero. Gauges aggregate over all driver instances bound to the
	// registry (one per shard in cluster mode). See docs/STORAGE.md.
	NameStoreCacheHits         = "store_cache_hits_total"
	NameStoreCacheMisses       = "store_cache_misses_total"
	NameStoreCacheEvictions    = "store_cache_evictions_total"
	NameStorePagesRead         = "store_pages_read_total"
	NameStorePagesWritten      = "store_pages_written_total"
	NameStoreCheckpoints       = "store_checkpoints_total"
	NameStoreCheckpointSeconds = "store_checkpoint_seconds"
	NameStoreDirtyPages        = "store_dirty_pages"             // gauge
	NameStoreCacheBytes        = "store_page_cache_bytes"        // gauge
	NameStoreCacheBudget       = "store_page_cache_budget_bytes" // gauge
	NameStoreRows              = "store_rows"                    // gauge
	NameStoreLastCkptMicros    = "store_last_checkpoint_micros"  // gauge: duration of the most recent checkpoint

	// Daemon process (cmd/gtmd).
	NameUptimeSeconds = "gtmd_uptime_seconds"
	NameGoroutines    = "gtmd_goroutines"
)

// WithLabel bakes one label pair into a registered metric name:
// WithLabel(NameAborts, "reason", "deadlock") → `gtm_aborts_total{reason="deadlock"}`.
// The registry treats each labeled spelling as an independent series.
func WithLabel(name, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}
