package main

import (
	"preserial/internal/obs"
)

// counters is one reading of the program's own cumulative counters, taken
// from the obs registry every layer of a topology shares. Metric names come
// only from the obs.Name* constants: re-registering a name returns the
// instrument the program already updates.
type counters map[string]float64

// Keys of a counters reading.
const (
	cCommits       = "gtm.commits"
	cSSTs          = "gtm.ssts"
	cMonitor       = "gtm.monitor_entries"
	cWaits         = "gtm.invoke_waits"
	cSSTRetries    = "gtm.sst_retries"
	cReconciled    = "gtm.reconciliations"
	cAwakesResumed = "gtm.awakes_resumed"
	cAwakesAborted = "gtm.awakes_aborted"
	cFsyncs        = "wal.fsyncs"
	cFsyncSeconds  = "wal.fsync_seconds"
	cBatchTxs      = "wal.batch_txs"
	cBatches       = "wal.batches"
	cLockWaits     = "ldbs.lock_waits"
	cFramesIn      = "wire.frames_in"
	cGwRejects     = "gw.rejects"
	cSingle        = "shard.single_commits"
	cCross         = "shard.cross_commits"
	cReplBytes     = "repl.bytes"
	cReplFrames    = "repl.frames"
	cReplTimeouts  = "repl.semisync_timeouts"
	cCacheHits     = "store.cache_hits"
	cCacheMisses   = "store.cache_misses"
	cEvictions     = "store.evictions"
	cPagesRead     = "store.pages_read"
	cPagesWritten  = "store.pages_written"
)

// readCounters takes one reading. Reading registers nothing the program
// would not have registered itself, except zero-valued placeholders for
// layers the topology does not have.
func readCounters(reg *obs.Registry) counters {
	load := func(c *obs.Counter) float64 { return float64(c.Load()) }
	fsync := reg.Histogram(obs.NameWALFsyncSeconds, "", nil)
	// The batch histogram records one observation per shared sync, of as
	// many "seconds" as the sync made transactions durable.
	batch := reg.Histogram(obs.NameWALGroupCommitBatch, "", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	var rejects float64
	for _, reason := range []string{"quota", "tenant", "lane", "sessions"} {
		rejects += load(reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", reason), ""))
	}
	return counters{
		cCommits:       load(reg.Counter(obs.NameCommits, "")),
		cSSTs:          load(reg.Counter(obs.WithLabel(obs.NameSST, "outcome", "ok"), "")),
		cMonitor:       load(reg.Counter(obs.NameMonitorEntries, "")),
		cWaits:         load(reg.Counter(obs.NameInvocationsWaited, "")),
		cSSTRetries:    load(reg.Counter(obs.NameSSTRetries, "")),
		cReconciled:    load(reg.Counter(obs.NameReconciliations, "")),
		cAwakesResumed: load(reg.Counter(obs.WithLabel(obs.NameAwakes, "outcome", "resumed"), "")),
		cAwakesAborted: load(reg.Counter(obs.WithLabel(obs.NameAwakes, "outcome", "aborted"), "")),
		cFsyncs:        load(reg.Counter(obs.NameWALFsyncs, "")),
		cFsyncSeconds:  fsync.Sum(),
		cBatchTxs:      batch.Sum(),
		cBatches:       float64(batch.Count()),
		cLockWaits:     load(reg.Counter(obs.NameLDBSLockWaits, "")),
		cFramesIn:      load(reg.Counter(obs.NameWireFramesIn, "")),
		cGwRejects:     rejects,
		cSingle:        load(reg.Counter(obs.WithLabel(obs.NameShardCommits, "path", "single"), "")),
		cCross:         load(reg.Counter(obs.WithLabel(obs.NameShardCommits, "path", "cross"), "")),
		cReplBytes:     load(reg.Counter(obs.NameReplBytesShipped, "")),
		cReplFrames:    load(reg.Counter(obs.NameReplFramesShipped, "")),
		cReplTimeouts:  load(reg.Counter(obs.NameReplSemisyncTimeouts, "")),
		cCacheHits:     load(reg.Counter(obs.NameStoreCacheHits, "")),
		cCacheMisses:   load(reg.Counter(obs.NameStoreCacheMisses, "")),
		cEvictions:     load(reg.Counter(obs.NameStoreCacheEvictions, "")),
		cPagesRead:     load(reg.Counter(obs.NameStorePagesRead, "")),
		cPagesWritten:  load(reg.Counter(obs.NameStorePagesWritten, "")),
	}
}

// minus returns the change since an earlier reading.
func (c counters) minus(earlier counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - earlier[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics fills the per-layer metrics that are counter deltas over the
// measured window. "Per commit" divides by the GTM's own commit count, which
// counts a cross-shard transaction once per participant — the unit in which
// the lower layers do their work.
func counterMetrics(values map[string]float64, workload string, d counters, tasks float64) {
	commits := d[cCommits]
	values["core.monitor_entries_per_task"] = ratio(d[cMonitor], tasks)
	values["core.awake_abort_pct"] = 100 * ratio(d[cAwakesAborted], d[cAwakesAborted]+d[cAwakesResumed])
	values["core.reconciliations_per_commit"] = ratio(d[cReconciled], commits)
	values["core.invoke_waits"] = d[cWaits]
	values["core.sst_retries"] = d[cSSTRetries]

	values["ldbs.wal_fsync_us"] = 1e6 * ratio(d[cFsyncSeconds], d[cFsyncs])
	values["ldbs.fsyncs_per_commit"] = ratio(d[cFsyncs], commits)
	values["ldbs.group_batch_mean"] = ratio(d[cBatchTxs], d[cBatches])
	values["ldbs.lock_waits_per_commit"] = ratio(d[cLockWaits], commits)

	values["ldbs.store.cache_hit_pct"] = 100 * ratio(d[cCacheHits], d[cCacheHits]+d[cCacheMisses])
	values["ldbs.store.evictions_per_commit"] = ratio(d[cEvictions], commits)
	values["ldbs.store.pages_read_per_commit"] = ratio(d[cPagesRead], commits)
	values["ldbs.store.pages_written_per_commit"] = ratio(d[cPagesWritten], commits)

	values["gateway.admission_rejects"] = d[cGwRejects]
	if workload == wlWireReadMostly {
		values["wire.requests_per_task"] = ratio(d[cFramesIn], tasks)
	}
	if workload == wlClusterBooking {
		values["shard.cross_pct"] = 100 * ratio(d[cCross], d[cCross]+d[cSingle])
		values["ldbs.repl.bytes_per_commit"] = ratio(d[cReplBytes], commits)
		values["ldbs.repl.frames_per_commit"] = ratio(d[cReplFrames], commits)
		values["ldbs.repl.semisync_timeouts"] = d[cReplTimeouts]
	}
}
