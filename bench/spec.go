package main

// The names in this file are the benchmark's public vocabulary: BENCHMARK.json
// repeats them, later issues cite them, and TestSpecMatchesBenchmarkJSON keeps
// the two in step.

// Workload names.
const (
	wlClusterBooking = "cluster_booking"
	wlWireReadMostly = "wire_read_mostly"
	wlMobileSleepers = "mobile_sleepers"
	wlEmbeddedBurst  = "embedded_burst"
)

// workloadNames lists the workloads in the order they run and print.
var workloadNames = []string{wlClusterBooking, wlWireReadMostly, wlMobileSleepers, wlEmbeddedBurst}

// workloadWhy is the one-line reason each workload exists, as BENCHMARK.json
// states it; the workload files say more.
var workloadWhy = map[string]string{
	wlClusterBooking: "the composed stack: gateway, 4 replicated disk shards, 20 % cross-shard 2PC; working set fits the page cache, so shard, repl and WAL changes show here",
	wlWireReadMostly: "no fsync, shards or gateway: 90 % monitor-free snapshot reads beside 10 % bookings, so framing, engine, monitor and 2PL are the whole cost; durable-path changes must not move it",
	wlMobileSleepers: "the paper's scenario: every transaction disconnects once, sleeps behind a parked gateway session, and is validated on awake (alpha = 0.7), with 20 000 idle sessions parked",
	wlEmbeddedBurst:  "embedded library use, no network: bursts of 32 commits in flight on a table ten times the page cache, so the SST executor, WAL batching, store misses and checkpoints do the work",
}

// runSeconds is the measured window BENCHMARK.json asks for.
const runSeconds = 20

// metricDef is one reported metric: its name, unit and direction, and for an
// end-to-end metric the share of the baseline by which it may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Layer, Source and Moves document a per-layer metric: the module it
	// belongs to, how it is obtained (seam span, isolated leg, counter) and
	// the end-to-end metric @ workload it is expected to move.
	Layer, Source, Moves string
}

// endToEnd are the metrics a client of the stack sees. Every workload reports
// every one of them, and none can read zero.
//
// The bounds follow the widest run-to-run spread (interquartile range over
// median, ten seeds, two sets) any workload showed on the sandbox that
// defined the baseline: about 10 % for throughput and commit latency — whole
// runs shift by that much while the slices inside a run agree — under 4 % for
// op_p50_ms, 7.5 % for rss_mb and setup_s. A tighter bound would report the
// sandbox's jitter as regressions; claims of a gain rest on paired runs, not
// on these. commit_pct's bound is set by how much the abort share of
// mobile_sleepers differs from seed to seed (about one point); for one seed
// the share repeats exactly.
var endToEnd = []metricDef{
	{Name: "tx_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "commit_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "commit_pct", Unit: "%", Better: "higher", Bound: 0.05},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, named <module>.<what>.
var perLayer = []metricDef{
	// client: what the end-to-end medians hide, and the workload-specific
	// client-visible quantities that not every workload can report.
	{Name: "client.commit_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "S"},
	{Name: "client.commit_pmax_supported_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "S"},
	{Name: "client.commit_pmax_percentile", Unit: "%", Better: "higher", Layer: "client", Source: "S"},
	{Name: "client.commit_samples", Unit: "count", Better: "higher", Layer: "client", Source: "S"},
	{Name: "client.slice_cv_pct", Unit: "%", Better: "lower", Layer: "client", Source: "S"},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "client", Source: "S"},
	{Name: "client.read_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "S @ wire_read_mostly"},
	{Name: "client.awake_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "S @ mobile_sleepers"},
	{Name: "client.parked_bytes_per_session", Unit: "B", Better: "lower", Layer: "client", Source: "C @ mobile_sleepers"},
	{Name: "client.abort_pct", Unit: "%", Better: "lower", Layer: "client", Source: "C"},
	{Name: "client.failed_ops_pct", Unit: "%", Better: "lower", Layer: "client", Source: "C"},

	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Layer: "wire", Source: "L", Moves: "op_p50_ms @ wire_read_mostly"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Layer: "wire", Source: "L", Moves: "op_p50_ms @ wire_read_mostly"},
	{Name: "wire.bytes_per_booking", Unit: "B", Better: "lower", Layer: "wire", Source: "L"},
	{Name: "wire.engine_serve_us", Unit: "us", Better: "lower", Layer: "wire", Source: "L", Moves: "op_p50_ms @ wire_read_mostly"},
	{Name: "wire.rtt_us", Unit: "us", Better: "lower", Layer: "wire", Source: "L", Moves: "client.read_p50_ms @ wire_read_mostly"},
	{Name: "wire.frontend_self_us", Unit: "us", Better: "lower", Layer: "wire", Source: "S @ wire_read_mostly", Moves: "commit_p50_ms @ wire_read_mostly"},
	{Name: "wire.requests_per_task", Unit: "count", Better: "lower", Layer: "wire", Source: "C @ wire_read_mostly"},

	{Name: "gateway.rtt_us", Unit: "us", Better: "lower", Layer: "gateway", Source: "L", Moves: "op_p50_ms @ cluster_booking, mobile_sleepers"},
	{Name: "gateway.dispatch_self_us", Unit: "us", Better: "lower", Layer: "gateway", Source: "L", Moves: "op_p50_ms @ cluster_booking, mobile_sleepers"},
	{Name: "gateway.attach_us", Unit: "us", Better: "lower", Layer: "gateway", Source: "L", Moves: "client.awake_p50_ms @ mobile_sleepers"},
	{Name: "gateway.resume_us", Unit: "us", Better: "lower", Layer: "gateway", Source: "S @ mobile_sleepers", Moves: "client.awake_p50_ms @ mobile_sleepers"},
	{Name: "gateway.frontend_self_us", Unit: "us", Better: "lower", Layer: "gateway", Source: "S @ cluster_booking, mobile_sleepers", Moves: "commit_p50_ms @ cluster_booking, mobile_sleepers"},
	{Name: "gateway.admission_rejects", Unit: "count", Better: "lower", Layer: "gateway", Source: "C"},

	{Name: "shard.route_ns", Unit: "ns", Better: "lower", Layer: "shard", Source: "L"},
	{Name: "shard.cluster_self_us.single", Unit: "us", Better: "lower", Layer: "shard", Source: "S @ cluster_booking", Moves: "commit_p50_ms @ cluster_booking"},
	{Name: "shard.cluster_self_us.cross", Unit: "us", Better: "lower", Layer: "shard", Source: "S @ cluster_booking", Moves: "commit_p95_ms @ cluster_booking"},
	{Name: "shard.prepare_us", Unit: "us", Better: "lower", Layer: "shard", Source: "S @ cluster_booking", Moves: "commit_p95_ms @ cluster_booking"},
	{Name: "shard.decide_us", Unit: "us", Better: "lower", Layer: "shard", Source: "S @ cluster_booking", Moves: "commit_p95_ms @ cluster_booking"},
	{Name: "shard.coordlog_us", Unit: "us", Better: "lower", Layer: "shard", Source: "L", Moves: "commit_p95_ms @ cluster_booking"},
	{Name: "shard.single_commit_us", Unit: "us", Better: "lower", Layer: "shard", Source: "L"},
	{Name: "shard.cross_commit_us", Unit: "us", Better: "lower", Layer: "shard", Source: "L"},
	{Name: "shard.cross_pct", Unit: "%", Better: "lower", Layer: "shard", Source: "C @ cluster_booking"},

	{Name: "ldbs.repl.ack_us", Unit: "us", Better: "lower", Layer: "ldbs.repl", Source: "L", Moves: "commit_p50_ms @ cluster_booking"},
	{Name: "ldbs.repl.bytes_per_commit", Unit: "B", Better: "lower", Layer: "ldbs.repl", Source: "C @ cluster_booking"},
	{Name: "ldbs.repl.frames_per_commit", Unit: "count", Better: "lower", Layer: "ldbs.repl", Source: "C @ cluster_booking"},
	{Name: "ldbs.repl.semisync_timeouts", Unit: "count", Better: "lower", Layer: "ldbs.repl", Source: "C @ cluster_booking"},

	{Name: "core.sst_apply_us", Unit: "us", Better: "lower", Layer: "core", Source: "S @ wire_read_mostly, mobile_sleepers, embedded_burst"},
	{Name: "core.self_us", Unit: "us", Better: "lower", Layer: "core", Source: "S @ wire_read_mostly, mobile_sleepers", Moves: "commit_p50_ms @ wire_read_mostly, mobile_sleepers"},
	{Name: "core.booking_us", Unit: "us", Better: "lower", Layer: "core", Source: "L", Moves: "op_p50_ms @ wire_read_mostly"},
	{Name: "core.monitor_entries_per_task", Unit: "count", Better: "lower", Layer: "core", Source: "C", Moves: "tx_per_s @ wire_read_mostly"},
	{Name: "core.snapshot_read_ns", Unit: "ns", Better: "lower", Layer: "core", Source: "L", Moves: "client.read_p50_ms @ wire_read_mostly"},
	{Name: "core.sleep_us", Unit: "us", Better: "lower", Layer: "core", Source: "L", Moves: "op_p50_ms @ mobile_sleepers"},
	{Name: "core.awake_us", Unit: "us", Better: "lower", Layer: "core", Source: "L", Moves: "client.awake_p50_ms @ mobile_sleepers"},
	{Name: "core.supervise_ms", Unit: "ms", Better: "lower", Layer: "core", Source: "L", Moves: "commit_p95_ms @ mobile_sleepers"},
	{Name: "core.awake_abort_pct", Unit: "%", Better: "lower", Layer: "core", Source: "C @ mobile_sleepers"},
	{Name: "core.reconciliations_per_commit", Unit: "count", Better: "lower", Layer: "core", Source: "C @ mobile_sleepers"},
	{Name: "core.invoke_waits", Unit: "count", Better: "lower", Layer: "core", Source: "C"},
	{Name: "core.sst_retries", Unit: "count", Better: "lower", Layer: "core", Source: "C"},

	{Name: "sem.compat_ns", Unit: "ns", Better: "lower", Layer: "sem", Source: "L"},
	{Name: "sem.reconcile_ns", Unit: "ns", Better: "lower", Layer: "sem", Source: "L"},

	{Name: "ldbs.tx_us", Unit: "us", Better: "lower", Layer: "ldbs", Source: "L", Moves: "commit_p50_ms @ wire_read_mostly"},
	{Name: "ldbs.commit_fsync_us", Unit: "us", Better: "lower", Layer: "ldbs", Source: "L", Moves: "commit_p50_ms @ mobile_sleepers"},
	{Name: "ldbs.wal_bytes_per_commit", Unit: "B", Better: "lower", Layer: "ldbs", Source: "L"},
	{Name: "ldbs.wal_fsync_us", Unit: "us", Better: "lower", Layer: "ldbs", Source: "C @ cluster_booking, mobile_sleepers, embedded_burst", Moves: "commit_p50_ms @ the same"},
	{Name: "ldbs.fsyncs_per_commit", Unit: "count", Better: "lower", Layer: "ldbs", Source: "C @ cluster_booking, mobile_sleepers, embedded_burst", Moves: "tx_per_s @ embedded_burst"},
	{Name: "ldbs.group_batch_mean", Unit: "count", Better: "higher", Layer: "ldbs", Source: "C @ cluster_booking, mobile_sleepers, embedded_burst", Moves: "tx_per_s @ embedded_burst"},
	{Name: "ldbs.lock_waits_per_commit", Unit: "count", Better: "lower", Layer: "ldbs", Source: "C"},
	{Name: "ldbs.self_us", Unit: "us", Better: "lower", Layer: "ldbs", Source: "S @ embedded_burst", Moves: "commit_p50_ms @ embedded_burst"},
	{Name: "ldbs.recover_ms", Unit: "ms", Better: "lower", Layer: "ldbs", Source: "S @ cluster_booking, mobile_sleepers, embedded_burst"},
	{Name: "ldbs.recover_ms_per_k_commits", Unit: "ms", Better: "lower", Layer: "ldbs", Source: "S @ cluster_booking, mobile_sleepers, embedded_burst"},

	{Name: "ldbs.store.apply_us", Unit: "us", Better: "lower", Layer: "ldbs.store", Source: "S @ cluster_booking, embedded_burst", Moves: "commit_p50_ms @ embedded_burst"},
	{Name: "ldbs.store.get_us", Unit: "us", Better: "lower", Layer: "ldbs.store", Source: "S @ cluster_booking, embedded_burst", Moves: "commit_p50_ms @ embedded_burst"},
	{Name: "ldbs.store.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "ldbs.store", Source: "S @ embedded_burst", Moves: "commit_p95_ms @ embedded_burst"},
	{Name: "ldbs.store.checkpoint_stall_ms", Unit: "ms", Better: "lower", Layer: "ldbs.store", Source: "S @ embedded_burst", Moves: "commit_p95_ms @ embedded_burst"},
	{Name: "ldbs.store.cache_hit_pct", Unit: "%", Better: "higher", Layer: "ldbs.store", Source: "C @ cluster_booking, embedded_burst"},
	{Name: "ldbs.store.evictions_per_commit", Unit: "count", Better: "lower", Layer: "ldbs.store", Source: "C @ cluster_booking, embedded_burst"},
	{Name: "ldbs.store.pages_read_per_commit", Unit: "count", Better: "lower", Layer: "ldbs.store", Source: "C @ cluster_booking, embedded_burst"},
	{Name: "ldbs.store.pages_written_per_commit", Unit: "count", Better: "lower", Layer: "ldbs.store", Source: "C @ cluster_booking, embedded_burst"},
	{Name: "ldbs.store.file_bytes_per_user_byte", Unit: "count", Better: "lower", Layer: "ldbs.store", Source: "C @ embedded_burst"},
	{Name: "ldbs.store.apply_us.mem", Unit: "us", Better: "lower", Layer: "ldbs.store", Source: "L"},
	{Name: "ldbs.store.apply_us.disk_fit", Unit: "us", Better: "lower", Layer: "ldbs.store", Source: "L"},
	{Name: "ldbs.store.apply_us.disk_10pct", Unit: "us", Better: "lower", Layer: "ldbs.store", Source: "L"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fillMetrics turns measured values into the reported set: exactly the
// metrics of defs, each with its declared unit. A value that was not
// measured (the workload has no such layer) reads 0.
func fillMetrics(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
