package main

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/gateway"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// swarmConfig carries the -swarm flags.
type swarmConfig struct {
	addr      string
	clients   int
	conns     int
	workers   int
	duration  time.Duration
	parkMin   time.Duration
	parkAlpha float64
	tenants   int
	seed      int64
	callTO    time.Duration
	budget    int64 // max bytes per parked session; 0: report only
	jsonPath  string
}

// swarmReport is what a swarm run prints and, with -json, writes.
type swarmReport struct {
	Bench       string  `json:"bench"` // always "gateway-swarm"
	Clients     int     `json:"clients"`
	Conns       int     `json:"conns"`
	Workers     int     `json:"workers"`
	DurationSec float64 `json:"duration_sec"` // active phase
	RampSec     float64 `json:"ramp_sec"`     // attach+park all clients

	Attached  int64 `json:"attached"` // sessions created during ramp
	Resumes   int64 `json:"resumes"`  // parked sessions woken in the active phase
	Committed int64 `json:"committed"`
	Failed    int64 `json:"failed"`

	ThroughputTxS  float64          `json:"throughput_tx_s"` // commits per active second
	AttachRateS    float64          `json:"attach_rate_s"`   // ramp attaches per second
	RetryAfter     int64            `json:"retry_after"`     // admission rejections observed client-side
	RejectsByCause map[string]int64 `json:"rejects_by_cause,omitempty"`

	ParkedSessions        int64   `json:"parked_sessions"`             // server gauge at end of run
	ParkedBytes           int64   `json:"parked_bytes"`                // server gauge at end of run
	BytesPerParkedSession float64 `json:"bytes_per_parked_session"`    // the capacity-planning number
	ServerGoroutines      int64   `json:"server_goroutines,omitempty"` // proves parked ≠ goroutines
}

// pareto samples a heavy-tailed park duration: minimum xm, tail exponent
// alpha (smaller = heavier). Capped at 1000×xm so one sample cannot park a
// client past any realistic run.
func pareto(rng *rand.Rand, xm time.Duration, alpha float64) time.Duration {
	u := rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	d := time.Duration(float64(xm) * math.Pow(1-u, -1/alpha))
	if d > 1000*xm {
		d = 1000 * xm
	}
	return d
}

// wakeHeap orders pending client wake-ups by time.
type wakeHeap []wakeEv

type wakeEv struct {
	at     time.Time
	client int
}

func (h wakeHeap) Len() int           { return len(h) }
func (h wakeHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h wakeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *wakeHeap) Push(x any)        { *h = append(*h, x.(wakeEv)) }
func (h *wakeHeap) Pop() any          { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

// swarmCounters are the run's shared tallies.
type swarmCounters struct {
	attached  atomic.Int64
	resumes   atomic.Int64
	committed atomic.Int64
	failed    atomic.Int64
	retries   atomic.Int64
	wakes     atomic.Int64 // also salts transaction ids

	mu      sync.Mutex
	rejects map[string]int64
}

func (c *swarmCounters) reject(reason string) {
	c.retries.Add(1)
	c.mu.Lock()
	c.rejects[reason]++
	c.mu.Unlock()
}

// runSwarm simulates cfg.clients mobile clients against a gateway, all
// multiplexed over cfg.conns TCP connections — the event-driven analogue
// of 100k devices that are nearly always parked. Two phases:
//
//  1. Ramp: every client attaches its session and immediately detaches,
//     populating the parked-session table (this is what a fleet of idle
//     devices looks like to the gateway).
//  2. Active: a scheduler heap wakes clients after heavy-tailed (Pareto)
//     park times; an awake client resumes its session, books one seat
//     (begin/invoke/apply/commit), detaches again and goes back to sleep.
//
// No goroutine exists per client — cfg.workers goroutines execute due
// wake-ups from the heap, mirroring how the gateway itself holds parked
// sessions as table entries rather than stacks.
func runSwarm(cfg swarmConfig) {
	if cfg.tenants < 1 {
		cfg.tenants = 1
	}
	conns := make([]*gateway.MuxConn, cfg.conns)
	for i := range conns {
		mc, err := gateway.DialMuxTimeout(cfg.addr, 10*time.Second, cfg.callTO)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gtmload: %v (is gtmd running?)\n", err)
			os.Exit(1)
		}
		defer mc.Close()
		conns[i] = mc
	}
	counters := &swarmCounters{rejects: make(map[string]int64)}
	sessionID := func(client int) string { return fmt.Sprintf("swarm-%d", client) }
	tenantOf := func(client int) string { return fmt.Sprintf("tenant-%d", client%cfg.tenants) }
	objs := benchObjects()

	// --- phase 1: ramp — attach and park the whole fleet ---
	rampStart := time.Now()
	ids := make(chan int, cfg.workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for client := range ids {
				mc := conns[client%cfg.conns]
				if _, _, err := mc.Attach(sessionID(client), tenantOf(client)); err != nil {
					counters.failed.Add(1)
					continue
				}
				counters.attached.Add(1)
				if err := mc.Detach(sessionID(client)); err != nil {
					counters.failed.Add(1)
				}
			}
		}()
	}
	for client := 0; client < cfg.clients; client++ {
		ids <- client
	}
	close(ids)
	wg.Wait()
	ramp := time.Since(rampStart)
	fmt.Printf("ramp: %d sessions attached+parked in %s (%.0f/s over %d conns)\n",
		counters.attached.Load(), ramp.Round(time.Millisecond),
		float64(counters.attached.Load())/ramp.Seconds(), cfg.conns)

	// --- phase 2: active — heavy-tail wake/book/park loop ---
	activeStart := time.Now()
	deadline := activeStart.Add(cfg.duration)
	seedRng := rand.New(rand.NewSource(cfg.seed))
	var (
		hmu sync.Mutex
		hp  wakeHeap
	)
	hp = make(wakeHeap, 0, cfg.clients)
	for client := 0; client < cfg.clients; client++ {
		hp = append(hp, wakeEv{at: activeStart.Add(pareto(seedRng, cfg.parkMin, cfg.parkAlpha)), client: client})
	}
	heap.Init(&hp)

	jobs := make(chan int, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		rng := rand.New(rand.NewSource(cfg.seed + int64(w) + 1))
		go func() {
			defer wg.Done()
			for client := range jobs {
				wake(conns[client%cfg.conns], client, sessionID(client), tenantOf(client),
					objs[client%len(objs)], counters)
				if next := time.Now().Add(pareto(rng, cfg.parkMin, cfg.parkAlpha)); next.Before(deadline) {
					hmu.Lock()
					heap.Push(&hp, wakeEv{at: next, client: client})
					hmu.Unlock()
				}
			}
		}()
	}
	// Dispatcher: pop due wake-ups until the deadline.
	for time.Now().Before(deadline) {
		hmu.Lock()
		if len(hp) == 0 || hp[0].at.After(time.Now()) {
			var wait time.Duration = 10 * time.Millisecond
			if len(hp) > 0 {
				if d := time.Until(hp[0].at); d < wait {
					wait = d
				}
			}
			hmu.Unlock()
			if wait > 0 {
				time.Sleep(wait)
			}
			continue
		}
		ev := heap.Pop(&hp).(wakeEv)
		hmu.Unlock()
		jobs <- ev.client
	}
	close(jobs)
	wg.Wait()
	active := time.Since(activeStart)

	// --- report ---
	rep := swarmReport{
		Bench: "gateway-swarm", Clients: cfg.clients, Conns: cfg.conns, Workers: cfg.workers,
		DurationSec: active.Seconds(), RampSec: ramp.Seconds(),
		Attached: counters.attached.Load(), Resumes: counters.resumes.Load(),
		Committed: counters.committed.Load(), Failed: counters.failed.Load(),
		ThroughputTxS: float64(counters.committed.Load()) / active.Seconds(),
		AttachRateS:   float64(counters.attached.Load()) / ramp.Seconds(),
		RetryAfter:    counters.retries.Load(),
	}
	counters.mu.Lock()
	if len(counters.rejects) > 0 {
		rep.RejectsByCause = counters.rejects
	}
	counters.mu.Unlock()
	if snap := serverSnapshot(conns[0]); snap != nil {
		rep.ParkedSessions = int64(snap["gw_sessions_parked"])
		rep.ParkedBytes = int64(snap["gw_parked_session_bytes"])
		rep.ServerGoroutines = int64(snap["gtmd_goroutines"])
		if rep.ParkedSessions > 0 {
			rep.BytesPerParkedSession = float64(rep.ParkedBytes) / float64(rep.ParkedSessions)
		}
	}
	fmt.Printf("active: %s — %d resumes, %d committed (%.1f tx/s), %d failed, %d retry-after\n",
		active.Round(time.Millisecond), rep.Resumes, rep.Committed, rep.ThroughputTxS,
		rep.Failed, rep.RetryAfter)
	for reason, n := range rep.RejectsByCause {
		fmt.Printf("  shed %q: %d\n", reason, n)
	}
	fmt.Printf("parked at end: %d sessions, %d bytes (%.0f bytes/session)\n",
		rep.ParkedSessions, rep.ParkedBytes, rep.BytesPerParkedSession)
	if rep.ServerGoroutines > 0 {
		fmt.Printf("server goroutines: %d (%.4f per parked client)\n",
			rep.ServerGoroutines, float64(rep.ServerGoroutines)/float64(max64(rep.ParkedSessions, 1)))
	}
	printGatewayMetrics(conns[0])

	if cfg.jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gtmload: write %s: %v\n", cfg.jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", cfg.jsonPath)
	}
	if cfg.budget > 0 {
		if rep.ParkedSessions == 0 {
			fmt.Fprintln(os.Stderr, "gtmload: budget check needs parked sessions, saw none (server metrics off?)")
			os.Exit(1)
		}
		if rep.BytesPerParkedSession > float64(cfg.budget) {
			fmt.Fprintf(os.Stderr, "gtmload: BUDGET EXCEEDED: %.0f bytes/parked session > %d budget\n",
				rep.BytesPerParkedSession, cfg.budget)
			os.Exit(1)
		}
		fmt.Printf("budget ok: %.0f bytes/parked session ≤ %d\n", rep.BytesPerParkedSession, cfg.budget)
	}
}

// wake runs one client's active burst: resume the parked session, book one
// seat, park again. Admission rejections count as shed load, not failures.
func wake(mc *gateway.MuxConn, client int, session, tenant, obj string, c *swarmCounters) {
	sc, resumed, err := mc.Session(session, tenant)
	if err != nil {
		c.classify(err)
		return
	}
	if resumed {
		c.resumes.Add(1)
	}
	tx := fmt.Sprintf("sw%d-%d", client, c.wakes.Add(1))
	err = sc.Begin(tx)
	if err == nil {
		err = sc.Invoke(tx, obj, sem.AddSub, "")
	}
	if err == nil {
		err = sc.Apply(tx, obj, sem.Int(-1))
	}
	if err == nil {
		err = sc.Commit(tx)
	}
	if err != nil {
		c.classify(err)
		sc.Abort(tx) // best effort; the retention sweep mops up stragglers
	} else {
		c.committed.Add(1)
	}
	if err := mc.Detach(session); err != nil {
		c.failed.Add(1)
	}
}

// classify counts one failed step: admission rejections by cause,
// everything else as a failure.
func (c *swarmCounters) classify(err error) {
	var ra *wire.RetryAfterError
	if errors.As(err, &ra) {
		c.reject(ra.Reason)
		return
	}
	c.failed.Add(1)
}

// serverSnapshot fetches the live obs snapshot over the stats op.
func serverSnapshot(mc *gateway.MuxConn) map[string]uint64 {
	resp, err := mc.Call(&wire.Request{Op: wire.OpStats})
	if err != nil || len(resp.Metrics) == 0 {
		return nil
	}
	return resp.Metrics
}

// printGatewayMetrics prints the server's gw_* family after a swarm run.
func printGatewayMetrics(mc *gateway.MuxConn) {
	snap := serverSnapshot(mc)
	if snap == nil {
		return
	}
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if strings.HasPrefix(k, "gw_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return
	}
	fmt.Println("server metrics (gw_*):")
	for _, k := range keys {
		fmt.Printf("  %-50s %d\n", k, snap[k])
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
