package main

import "strings"

// traceView is a traced window ready for analysis: linked spans, their self
// times, per-name aggregates, and the counter deltas of the same window.
type traceView struct {
	workload string
	spans    []span
	self     map[int]int64
	agg      map[string]*spanAgg
	delta    counters
	// commits is the number of client commits of the whole window, recorded
	// or not: the denominator that matches the counter deltas. Spans exist
	// only for the recorded stretches, so span totals divide by span counts.
	commits  float64
	from, to int64
}

func newTraceView(workload string, spans []span, delta counters, commits float64, from, to int64) *traceView {
	linkSpans(spans)
	self := selfTimes(spans)
	return &traceView{workload: workload, spans: spans, self: self,
		agg: aggregate(spans, self, from, to), delta: delta, commits: commits, from: from, to: to}
}

// inWindow reports whether the span started inside the measured window.
func (v *traceView) inWindow(s span) bool { return s.Start >= v.from && s.Start < v.to }

// clientSelfUS is the mean time a client call spent above the backend seam:
// the client span minus the backend span it caused — framing, the network
// hop, the front end's dispatch and the engine. Session calls that never
// reach the backend (attach, detach) count in full.
//
// It is computed on window totals rather than span by span, because a
// one-shot snapshot read carries no transaction id to link its two spans by.
func (v *traceView) clientSelfUS() float64 {
	var client, backend, n int64
	for name, a := range v.agg {
		switch {
		case strings.HasPrefix(name, "client."):
			client += a.total
			n += a.count
		case strings.HasPrefix(name, "backend."):
			backend += a.total
		}
	}
	return ratio(float64(client-backend), float64(n)) / 1e3
}

// perSST is a driver-level total spread over the recorded SSTs, in
// microseconds. Store and driver spans carry no transaction id, so they are
// attributed evenly.
func (v *traceView) perSST(names ...string) float64 {
	var total float64
	for _, n := range names {
		total += v.agg[n].totalUS()
	}
	if a := v.agg[spStoreApply]; a != nil {
		return ratio(total, float64(a.count))
	}
	return 0
}

// clusterSelf splits the backend-seam commit spans of the window by commit
// path and returns the cluster's mean self time on each: the commit span
// minus its shard-seam children, which is routing, coordination and — on the
// cross-shard path — the coordinator log's two fsyncs.
func (v *traceView) clusterSelf() (singleUS, crossUS float64) {
	cross := make(map[int]bool) // backend.commit span id → has a prepare child
	for _, s := range v.spans {
		if s.Name == spShardPrepare && s.Parent != 0 {
			cross[s.Parent] = true
		}
	}
	var sumS, nS, sumC, nC int64
	for _, s := range v.spans {
		if s.Name != spBackendCommit || !v.inWindow(s) {
			continue
		}
		if cross[s.ID] {
			sumC += v.self[s.ID]
			nC++
		} else {
			sumS += v.self[s.ID]
			nS++
		}
	}
	return ratio(float64(sumS), float64(nS)) / 1e3, ratio(float64(sumC), float64(nC)) / 1e3
}

// checkpointStallMS is the slowest client commit that overlapped a driver
// checkpoint, minus the median commit: what a checkpoint costs the unlucky
// foreground commit. 0 when no checkpoint ran in the window.
func (v *traceView) checkpointStallMS() float64 {
	var ckpts []span
	for _, s := range v.spans {
		if s.Name == spDriverCheckpoint && v.inWindow(s) {
			ckpts = append(ckpts, s)
		}
	}
	if len(ckpts) == 0 {
		return 0
	}
	var worst int64
	var commits []float64
	for _, s := range v.spans {
		if s.Name != spClientCommit || !v.inWindow(s) {
			continue
		}
		commits = append(commits, float64(s.dur()))
		for _, c := range ckpts {
			if s.Start < c.End && c.Start < s.End && s.dur() > worst {
				worst = s.dur()
			}
		}
	}
	if worst == 0 {
		return 0
	}
	return (float64(worst) - median(commits)) / 1e6
}

// seamMetrics fills the per-layer metrics that come from seam spans.
func (v *traceView) seamMetrics(values map[string]float64) {
	fsyncUS := 1e6 * ratio(v.delta[cFsyncSeconds], v.delta[cFsyncs])
	switch v.workload {
	case wlWireReadMostly:
		values["wire.frontend_self_us"] = v.clientSelfUS()
	case wlClusterBooking, wlMobileSleepers:
		values["gateway.frontend_self_us"] = v.clientSelfUS()
	}
	if v.workload == wlMobileSleepers {
		values["gateway.resume_us"] = v.agg[spClientResume].meanUS()
	}
	if v.workload == wlClusterBooking {
		values["shard.cluster_self_us.single"], values["shard.cluster_self_us.cross"] = v.clusterSelf()
		values["shard.prepare_us"] = v.agg[spShardPrepare].meanUS()
		values["shard.decide_us"] = v.agg[spShardDecide].meanUS()
	} else {
		apply := v.agg[spStoreApply].meanUS()
		values["core.sst_apply_us"] = apply
		if v.workload != wlEmbeddedBurst {
			values["core.self_us"] = v.agg[spBackendCommit].meanUS() - apply
		}
	}
	if v.workload == wlClusterBooking || v.workload == wlEmbeddedBurst {
		values["ldbs.store.apply_us"] = v.agg[spDriverApply].meanUS()
		values["ldbs.store.get_us"] = v.agg[spDriverGet].meanUS()
	}
	if v.workload == wlEmbeddedBurst {
		values["ldbs.self_us"] = v.agg[spStoreApply].meanUS() - v.perSST(spDriverApply, spDriverGet) - fsyncUS
		values["ldbs.store.checkpoint_ms"] = v.agg[spDriverCheckpoint].meanUS() / 1e3
		values["ldbs.store.checkpoint_stall_ms"] = v.checkpointStallMS()
	}
}

// commitBudget builds the workload's budget table from the traced window.
// Every row is a mean per client commit. Seam-linked rows (front end, shard
// self) are exact self times; store-level rows are window totals spread over
// the window's client commits, and the WAL row is the mean fsync latency
// times the SSTs a client commit waits for one after another.
func (v *traceView) commitBudget() budget {
	client := v.agg[spClientCommit]
	b := budget{Workload: v.workload, MeanCommitUS: client.meanUS()}
	if client == nil || client.count == 0 {
		return b
	}
	b.Commits = client.count
	n := float64(client.count)
	sstsPerCommit := ratio(v.delta[cSSTs], v.commits)
	fsync := 1e6 * ratio(v.delta[cFsyncSeconds], v.delta[cFsyncs]) * sstsPerCommit
	storeUS := (v.agg[spDriverApply].totalUS() + v.agg[spDriverGet].totalUS()) / n
	applyUS := v.agg[spStoreApply].totalUS() / n

	var front, shardSelf, coreSelf, ldbsSelf float64
	var frontNote, shardNote, coreNote, ldbsNote, storeNote, restNote string
	switch v.workload {
	case wlClusterBooking:
		front = client.selfMeanUS()
		frontNote = "client span - backend span: framing, loopback hop, gateway lanes, engine"
		shardSelf = v.agg[spBackendCommit].selfMeanUS()
		shardNote = "backend span - shard spans: routing, 2PC coordination, CoordLog fsyncs"
		coreNote, ldbsNote = "no seam inside a shard: in remainder", "no seam inside a shard: in remainder"
		storeNote = "primary driver Apply+Get per commit"
		restNote = "below the shard seam: core, ldbs locking, follower ack"
	case wlEmbeddedBurst:
		frontNote, shardNote = "no network", "no shards"
		coreSelf = client.meanUS() - applyUS
		coreNote = "RequestCommit->EvCommitted - store span: monitor, committer slots, SST queue wait"
		ldbsSelf = applyUS - storeUS - fsync
		ldbsNote = "store span - driver - fsync: 2PL, WAL append, group-commit wait"
		storeNote = "driver Apply+Get per commit (page cache 10% of the table)"
	default:
		front = client.selfMeanUS()
		frontNote = "client span - backend span: framing, loopback hop, dispatch, engine"
		shardNote = "no shards"
		coreSelf = v.agg[spBackendCommit].meanUS() - applyUS
		coreNote = "backend span - store span: monitor, committer slots, SST hand-off"
		ldbsSelf = applyUS - storeUS - fsync
		ldbsNote = "store span - driver - fsync: 2PL, WAL append, group-commit wait"
		storeNote = "mem driver is not decorated: in ldbs self"
	}
	rows := []budgetRow{
		{Name: "front end", US: front, Note: frontNote},
		{Name: "shard self", US: shardSelf, Note: shardNote},
		{Name: "core self", US: coreSelf, Note: coreNote},
		{Name: "ldbs self", US: ldbsSelf, Note: ldbsNote},
		{Name: "ldbs.store", US: storeUS, Note: storeNote},
		{Name: "WAL fsync", US: fsync, Note: "mean fsync latency x SSTs per client commit"},
	}
	var sum float64
	for _, r := range rows {
		sum += r.US
	}
	rows = append(rows, budgetRow{Name: "remainder", US: b.MeanCommitUS - sum, Note: restNote})
	b.Rows = rows
	return b
}
