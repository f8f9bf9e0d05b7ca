package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Run shape shared by every workload: closed loop, clients = min(nproc, 4)
// client goroutines with one connection each, set-up (timed), a discarded
// warm-up, then the measured window split into slices. tx_per_s is the
// median slice rate; latencies are over all samples of the window.
const (
	maxClients     = 4
	measuredSlices = 5
	warmup         = 2 * time.Second
	quickWarmup    = 200 * time.Millisecond // smoke mode only
	// traceStretches is how many equal stretches a traced run cuts its window
	// into; recording is on in every second one.
	traceStretches = 10
	// setupRepeats is how many times an untraced run builds its topology:
	// setup_s is the median, so one slow fsync does not decide it.
	setupRepeats = 3
	// A set-up faster than cheapSetup is repeated cheapSetupRepeats times.
	cheapSetup        = 200 * time.Millisecond
	cheapSetupRepeats = 15
)

// clientCount is the benchmark's closed-loop concurrency. Results from
// machines with a different nproc are not comparable: the count changes.
func clientCount() int {
	n := runtime.NumCPU()
	if n > maxClients {
		n = maxClients
	}
	if n < 1 {
		n = 1
	}
	return n
}

// env is what a workload needs to build and drive its topology.
type env struct {
	seed    int64
	clients int
	dir     string  // data directory of this set-up
	tr      *tracer // nil in an untraced run
	quick   bool    // smoke sizes: same code paths, a fraction of the data
}

// workload is one traffic mix against one topology.
type workload interface {
	// setup builds the topology under e.dir, seeds it and connects the
	// clients — everything that happens before the first request.
	setup(e *env) error
	// client runs client i's closed loop until stop is set. It owns r.
	client(i int, r *recorder, stop *atomic.Bool)
	// counters reads the cumulative layer counters.
	counters() counters
	// verify compares the committed state, read back through ldbs, with the
	// model the clients kept; it runs after the clients stopped.
	verify() (verifyReport, error)
	// close shuts the topology down; recover may follow.
	close() error
	// recover reopens the durable state from the directories alone and
	// verifies it again. Volatile topologies return a zero report.
	recover() (recoverReport, error)
}

// verifyReport is the outcome of one oracle pass.
type verifyReport struct {
	Checked    int
	Mismatches int
	First      string // first mismatch, for the report
	// CommitPct is the share of transactions that ended committed, from the
	// workload's own bookkeeping (100 where nothing can abort).
	CommitPct float64
	// Extra are workload-specific client-visible values (parked bytes per
	// session, file bytes per user byte).
	Extra map[string]float64
	// Notes are printed with the result (sizes, cycles completed).
	Notes []string
}

// recoverReport is the outcome of a close-reopen-verify pass.
type recoverReport struct {
	Durable    bool
	Elapsed    time.Duration
	Commits    int64 // commits the reopen had to redo from the WAL
	Checked    int
	Mismatches int
	First      string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlClusterBooking:
		return &clusterBooking{}, nil
	case wlWireReadMostly:
		return &wireReadMostly{}, nil
	case wlMobileSleepers:
		return &mobileSleepers{}, nil
	case wlEmbeddedBurst:
		return &embeddedBurst{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// runOptions selects one run.
type runOptions struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Quick    bool
	OutDir   string // where a traced run writes its span file
}

// result is what one run reports: the contract line's fields plus the
// run's context for the human-readable report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	info runInfo
}

// runInfo is printed with the results but is not part of the contract line.
type runInfo struct {
	Workload   string
	Seed       int64
	Clients    int
	NProc      int
	GoMaxProcs int
	Seconds    float64
	Traced     bool
	Notes      []string
	Budget     *budget
	TracePath  string
}

// runWorkload performs one complete run: set-up, warm-up, measurement,
// oracle, recovery and — traced — the span analysis and isolated legs.
func runWorkload(o runOptions) (*result, error) {
	root, err := os.MkdirTemp("", "gtmbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	clients := clientCount()
	base := time.Now()
	var tr *tracer
	if o.Trace {
		tr = newTracer(base, seamSpanCap)
		driverTracer.Store(tr)
	}

	// Set-up, repeated; the last topology is the one that runs.
	repeats := setupRepeats
	if o.Trace || o.Quick {
		repeats = 1
	}
	var (
		w      workload
		setups []float64
	)
	for rep := 0; rep < repeats; rep++ {
		// A set-up of a few milliseconds is mostly jitter: repeat cheap ones
		// more often, so the median settles.
		if rep == setupRepeats-1 && median(setups) < cheapSetup.Seconds() {
			repeats = cheapSetupRepeats
		}
		if w, err = newWorkload(o.Workload); err != nil {
			return nil, err
		}
		e := &env{seed: o.Seed, clients: clients, dir: filepath.Join(root, "setup-"+strconv.Itoa(rep)),
			tr: tr, quick: o.Quick}
		start := time.Now()
		if err := w.setup(e); err != nil {
			_ = w.close()
			return nil, fmt.Errorf("set-up of %s: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < repeats-1 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d of %s: %w", rep, o.Workload, err)
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
	}

	// Drive.
	recs := make([]*recorder, clients)
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for i := range recs {
		recs[i] = newRecorder(base, tr)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.client(i, recs[i], &stop)
		}(i)
	}
	now := func() int64 { return int64(time.Since(base)) }
	measured := time.Duration(o.Seconds * float64(time.Second))

	if o.Quick {
		time.Sleep(quickWarmup)
	} else {
		time.Sleep(warmup)
	}
	c0 := w.counters()
	from := now()
	var onNS, offNS []int64 // flattened [from, to) pairs
	if o.Trace {
		// Recording alternates off/on in equal stretches of the one window,
		// so the recorded and the unrecorded rate see the same process state
		// and their ratio is the tracing overhead.
		stretch := measured / traceStretches
		for k := 0; k < traceStretches; k++ {
			on := k%2 == 1
			tr.on.Store(on)
			t0 := now()
			time.Sleep(stretch)
			if on {
				onNS = append(onNS, t0, now())
			} else {
				offNS = append(offNS, t0, now())
			}
		}
		tr.on.Store(false)
	} else {
		time.Sleep(measured)
	}
	to := now()
	c1 := w.counters()
	stop.Store(true)
	wg.Wait()

	// Oracle on the live stack, then on what a restart finds.
	res := &result{info: runInfo{Workload: o.Workload, Seed: o.Seed, Clients: clients,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Seconds: o.Seconds, Traced: o.Trace}}
	rss := procStatusMB("VmHWM:")
	vr, verr := w.verify()
	cerr := w.close()
	if verr != nil {
		return nil, fmt.Errorf("oracle of %s: %w", o.Workload, verr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("closing %s: %w", o.Workload, cerr)
	}
	rr, err := w.recover()
	if err != nil {
		return nil, fmt.Errorf("recovery of %s: %w", o.Workload, err)
	}

	// Counts.
	var callFailures int64
	for _, r := range recs {
		res.Attempted += r.attempted
		callFailures += r.failed
		if r.firstErr != nil {
			res.info.Notes = append(res.info.Notes, "first call failure: "+r.firstErr.Error())
		}
	}
	res.Failed = callFailures + int64(vr.Mismatches) + int64(rr.Mismatches)
	if vr.Mismatches > 0 {
		res.info.Notes = append(res.info.Notes, fmt.Sprintf("oracle: %d of %d objects differ from the model, first: %s",
			vr.Mismatches, vr.Checked, vr.First))
	}
	if rr.Mismatches > 0 {
		res.info.Notes = append(res.info.Notes, fmt.Sprintf("durability oracle: %d of %d objects differ after reopen, first: %s",
			rr.Mismatches, rr.Checked, rr.First))
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		return nil, errors.New("bench: no call was attempted")
	}
	res.info.Notes = append(res.info.Notes, vr.Notes...)
	res.info.Notes = append(res.info.Notes, fmt.Sprintf("oracle checked %d objects live, %d after reopen", vr.Checked, rr.Checked))

	win := collect(recs, from, to, measuredSlices)
	res.info.Notes = append(res.info.Notes, fmt.Sprintf("slice rates (1/s): %.0f", win.rates()))
	values := make(map[string]float64)
	if !o.Trace {
		commits := win.sorted(kCommit)
		values["tx_per_s"] = median(win.rates())
		values["commit_p50_ms"] = percentile(commits, 0.50)
		values["commit_p95_ms"] = percentile(commits, 0.95)
		values["op_p50_ms"] = percentile(win.sorted(kOp), 0.50)
		values["commit_pct"] = vr.CommitPct
		values["rss_mb"] = rss
		values["setup_s"] = median(setups)
		res.Metrics = fillMetrics(endToEnd, values)
		return res, nil
	}

	// Traced: client tails, seam spans, counters, legs.
	clientMetrics(values, win, vr, res.Attempted, res.Failed)
	if untraced := rateIn(win.tasks, offNS); untraced > 0 {
		values["client.trace_overhead_pct"] = 100 * (1 - rateIn(win.tasks, onNS)/untraced)
	}
	all := append([]span(nil), tr.spans()...)
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	delta := c1.minus(c0)
	view := newTraceView(o.Workload, all, delta, float64(len(win.durs[kCommit])), from, to)
	view.seamMetrics(values)
	counterMetrics(values, o.Workload, delta, float64(len(win.tasks)))
	if rr.Durable {
		values["ldbs.recover_ms"] = float64(rr.Elapsed) / 1e6
		if rr.Commits > 0 {
			values["ldbs.recover_ms_per_k_commits"] = float64(rr.Elapsed) / 1e6 / (float64(rr.Commits) / 1000)
		}
	}
	if n := tr.dropped.Load(); n > 0 {
		res.info.Notes = append(res.info.Notes, fmt.Sprintf("%d seam spans dropped (buffer of %d full)", n, len(tr.buf)))
	}
	b := view.commitBudget()
	res.info.Budget = &b
	if o.OutDir != "" {
		path, err := writeTrace(o.OutDir, o.Workload, all)
		if err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		res.info.TracePath = path
	}
	legDir := filepath.Join(root, "legs")
	if err := runLegs(values, legDir, o.Quick); err != nil {
		return nil, fmt.Errorf("isolated legs: %w", err)
	}
	res.Metrics = fillMetrics(perLayer, values)
	return res, nil
}

// clientMetrics fills the client.* values from the measured window.
func clientMetrics(values map[string]float64, win *window, vr verifyReport, attempted, failed int64) {
	commits := win.sorted(kCommit)
	values["client.commit_p99_ms"] = percentile(commits, 0.99)
	p, v := supportedTail(commits)
	values["client.commit_pmax_supported_ms"] = v
	values["client.commit_pmax_percentile"] = 100 * p
	values["client.commit_samples"] = float64(len(commits))
	values["client.slice_cv_pct"] = cvPct(win.rates())
	values["client.read_p50_ms"] = percentile(win.sorted(kRead), 0.50)
	values["client.awake_p50_ms"] = percentile(win.sorted(kAwake), 0.50)
	values["client.abort_pct"] = 100 - vr.CommitPct
	values["client.failed_ops_pct"] = 100 * float64(failed) / float64(attempted)
	for k, v := range vr.Extra {
		values[k] = v
	}
}

// procStatusMB reads one kB field ("VmRSS:", "VmHWM:") of /proc/self/status
// in MB (0 where /proc is missing).
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
