// Command gtmload drives a running gtmd over TCP in one of three modes.
//
// The default mode replays the paper's Section VI.B workload in real time:
// N transactions arriving at a fixed rate, subtracting (probability α) or
// assigning (1−α) on the demo flights, with disconnection probability β —
// a disconnection is a real dropped TCP connection, after which the client
// reconnects, attaches and awakens its transaction. It prints the same two
// quantities as Fig. 3: mean execution time and abort percentage. By
// default clients are wire.ResilientConn (deadlines, reconnect with
// backoff, exactly-once retries); -resilient=false drives the legacy v1
// attach/awake flow by hand. Client-side wire_* counters (reconnects,
// retries) are printed after the run.
//
//	gtmd -addr 127.0.0.1:7654 &
//	gtmload -addr 127.0.0.1:7654 -n 100 -alpha 0.8 -beta 0.1 -interarrival 20ms
//
// -bench is a closed-loop throughput mode: -workers goroutines hammer
// single-object bookings across every demo resource with no think time for
// -duration, then print tx/s and the server's counters.
//
//	gtmload -addr 127.0.0.1:7654 -bench -workers 64 -duration 10s
//
// -swarm simulates a mobile fleet against a gateway (gtmd -gateway):
// -clients logical sessions multiplexed over -conns TCP connections, each
// client parked (detached) almost all the time and waking on a heavy-tailed
// Pareto schedule (-park-min, -park-alpha) to book one seat and park again.
// No goroutine exists per client on either side; -swarm-workers goroutines
// execute due wake-ups from an event heap. The run reports throughput and
// the parked-session byte cost (from the server's gw_* gauges), optionally
// enforces -budget-bytes per parked session, and writes a JSON report with
// -json (see BENCH_gateway.json and docs/GATEWAY.md).
//
//	gtmd -addr 127.0.0.1:7654 -gateway -seats 1000000 &
//	gtmload -addr 127.0.0.1:7654 -swarm -clients 100000 -conns 8 -duration 10s -json BENCH_gateway.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"preserial/internal/metrics"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
	"preserial/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7654", "gtmd address")
	n := flag.Int("n", 100, "number of transactions")
	alpha := flag.Float64("alpha", 0.7, "P(subtract)")
	beta := flag.Float64("beta", 0.1, "P(disconnection | subtract)")
	interarrival := flag.Duration("interarrival", 20*time.Millisecond, "arrival spacing")
	exec := flag.Duration("exec", 100*time.Millisecond, "mean execution (think) time")
	discFor := flag.Duration("disconnect-for", 150*time.Millisecond, "mean disconnection duration")
	objects := flag.Int("objects", 4, "number of demo flights to target (Flight/AZ0..)")
	seed := flag.Int64("seed", 1, "workload seed")
	resilient := flag.Bool("resilient", true, "use the disconnection-tolerant client (deadlines, reconnects, exactly-once retries); false drives the legacy v1 flow")
	callTO := flag.Duration("call-timeout", wire.DefaultCallTimeout, "per-call deadline for the resilient client")
	bench := flag.Bool("bench", false, "throughput mode: closed-loop workers hammering single-object bookings across every demo resource, no think time; prints tx/s")
	workers := flag.Int("workers", 32, "concurrent workers in -bench mode")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load in -bench and -swarm modes")
	swarm := flag.Bool("swarm", false, "fleet mode against gtmd -gateway: many mostly-parked sessions multiplexed over few connections; reports parked-session byte cost")
	swarmClients := flag.Int("clients", 100000, "logical clients (sessions) in -swarm mode")
	swarmConns := flag.Int("conns", 8, "TCP connections the swarm multiplexes over")
	swarmWorkers := flag.Int("swarm-workers", 64, "goroutines executing wake-ups in -swarm mode")
	parkMin := flag.Duration("park-min", 2*time.Second, "minimum park (think/sleep) time between a swarm client's wake-ups")
	parkAlpha := flag.Float64("park-alpha", 1.5, "Pareto tail exponent for park times (smaller = heavier tail)")
	tenants := flag.Int("tenants", 4, "distinct tenants the swarm spreads clients across")
	budgetBytes := flag.Int64("budget-bytes", 0, "fail the swarm run if bytes per parked session exceed this (0 = report only)")
	jsonPath := flag.String("json", "", "write the swarm report as JSON to this path")
	flag.Parse()

	if *swarm {
		runSwarm(swarmConfig{
			addr: *addr, clients: *swarmClients, conns: *swarmConns,
			workers: *swarmWorkers, duration: *duration,
			parkMin: *parkMin, parkAlpha: *parkAlpha, tenants: *tenants,
			seed: *seed, callTO: *callTO, budget: *budgetBytes, jsonPath: *jsonPath,
		})
		return
	}
	if *bench {
		runBench(*addr, *workers, *duration)
		return
	}

	p := workload.DefaultParams()
	p.N = *n
	p.Alpha = *alpha
	p.Beta = *beta
	p.Objects = *objects
	p.Interarrival = *interarrival
	p.Exec = *exec
	p.DisconnectMean = *discFor
	p.Seed = *seed
	specs, err := workload.Generate(p)
	if err != nil {
		log.Fatal(err)
	}

	// Quick reachability check.
	probe, err := wire.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gtmload: %v (is gtmd running?)\n", err)
		os.Exit(1)
	}
	probe.Close()

	// Client-side registry: the resilient clients share it, so the printed
	// wire_reconnects_total / wire_client_retries_total cover the whole run.
	clientReg := obs.NewRegistry()

	var (
		mu        sync.Mutex
		lat       metrics.Agg
		aborted   int
		committed int
		reasons   = map[string]int{}
	)
	var wg sync.WaitGroup
	start := time.Now()
	for _, spec := range specs {
		spec := spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(spec.Arrival)))
			t0 := time.Now()
			var err error
			if *resilient {
				err = runResilient(*addr, spec, clientReg, *callTO)
			} else {
				err = runClient(*addr, spec)
			}
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				aborted++
				reasons[reasonOf(err)]++
				return
			}
			committed++
			lat.AddDuration(d)
		}()
	}
	wg.Wait()

	fmt.Printf("population: %d (α=%.2f β=%.2f, %d objects, %v apart)\n",
		*n, *alpha, *beta, *objects, *interarrival)
	elapsed := time.Since(start)
	fmt.Printf("committed: %d, aborted: %d (%.1f%%)\n",
		committed, aborted, 100*float64(aborted)/float64(*n))
	fmt.Printf("execution time: %s\n", lat.String())
	fmt.Printf("throughput: %.1f tx/s (%d committed in %s)\n",
		float64(committed)/elapsed.Seconds(), committed, elapsed.Round(time.Millisecond))
	for r, c := range reasons {
		fmt.Printf("  abort reason %q: %d\n", r, c)
	}
	if *resilient {
		printClientMetrics(clientReg)
	}
	printServerMetrics(*addr)
}

// benchObjects is the full demo object set (gtmd seeds 4 resources of each
// kind) — spread wide so a sharded server can spread the load.
func benchObjects() []string {
	kinds := []struct{ table, prefix string }{
		{"Flight", "AZ"}, {"Hotel", "H"}, {"Museum", "M"}, {"Car", "C"},
	}
	var out []string
	for _, k := range kinds {
		for i := 0; i < 4; i++ {
			out = append(out, fmt.Sprintf("%s/%s%d", k.table, k.prefix, i))
		}
	}
	return out
}

// runBench drives closed-loop single-object bookings from `workers`
// concurrent connections for `duration` and prints throughput — the number
// `make bench-shard` compares between single-node and sharded gtmd. Run the
// server with enough -seats that the non-negativity constraint never trips.
func runBench(addr string, workers int, duration time.Duration) {
	objs := benchObjects()
	var (
		mu        sync.Mutex
		committed int
		failed    int
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn, err := wire.Dial(addr)
			if err != nil {
				mu.Lock()
				failed++
				mu.Unlock()
				return
			}
			defer cn.Close()
			ok, bad := 0, 0
			for i := 0; time.Now().Before(deadline); i++ {
				tx := fmt.Sprintf("bench-w%d-%d", w, i)
				obj := objs[(w+i)%len(objs)]
				err := cn.Begin(tx)
				if err == nil {
					err = cn.Invoke(tx, obj, sem.AddSub, "")
				}
				if err == nil {
					err = cn.Apply(tx, obj, sem.Int(-1))
				}
				if err == nil {
					err = cn.Commit(tx)
				}
				if err != nil {
					bad++
					continue
				}
				ok++
			}
			mu.Lock()
			committed += ok
			failed += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("bench: %d workers, %d objects, %s\n", workers, len(objs), duration)
	fmt.Printf("committed: %d, failed: %d\n", committed, failed)
	fmt.Printf("throughput: %.1f tx/s\n", float64(committed)/elapsed.Seconds())
}

// printClientMetrics prints the resilient clients' shared counters.
func printClientMetrics(reg *obs.Registry) {
	snap := reg.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		if strings.HasPrefix(k, "wire_") {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	fmt.Println("client metrics (wire_*):")
	for _, k := range keys {
		fmt.Printf("  %-50s %d\n", k, snap[k])
	}
}

// printServerMetrics fetches the server's live observability snapshot over
// the stats op and prints the GTM families — the server-side view of the
// run just driven. Silent when the server has no registry.
func printServerMetrics(addr string) {
	cn, err := wire.Dial(addr)
	if err != nil {
		return
	}
	defer cn.Close()
	_, m, err := cn.Metrics()
	if err != nil || len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		if strings.HasPrefix(k, "gtm_") || strings.HasPrefix(k, "ldbs_") || strings.HasPrefix(k, "wire_") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Println("server metrics (gtm_*, ldbs_*, wire_*):")
	for _, k := range keys {
		fmt.Printf("  %-50s %d\n", k, m[k])
	}
}

// reasonOf extracts the GTM abort reason from a wire error.
func reasonOf(err error) string {
	msg := err.Error()
	for _, r := range []string{"sleep-conflict", "sst-failure", "resume-failure", "deadlock", "timeout"} {
		if strings.Contains(msg, r) {
			return r
		}
	}
	return "other"
}

// runResilient executes one workload transaction through the
// disconnection-tolerant client: a disconnection is just a severed link —
// the next call reconnects, re-attaches and awakens the transaction
// automatically, and retried mutations are deduplicated server-side.
func runResilient(addr string, spec workload.Spec, reg *obs.Registry, callTO time.Duration) error {
	obj := fmt.Sprintf("Flight/AZ%d", spec.Object)
	rc := wire.DialResilient(addr, wire.ResilientOptions{
		CallTimeout: callTO,
		Obs:         reg,
	})
	defer rc.Close()
	if err := rc.Begin(spec.ID); err != nil {
		return err
	}
	if err := rc.Invoke(spec.ID, obj, spec.Kind.Class(), ""); err != nil {
		return err
	}
	if err := rc.Apply(spec.ID, obj, spec.Operand); err != nil {
		return err
	}
	if !spec.Disconnects {
		time.Sleep(spec.Exec)
		return rc.Commit(spec.ID)
	}
	// Think until the network "fails", stay dark, then carry on — the
	// resilient client handles reconnect/attach/awake on the next call.
	time.Sleep(spec.DisconnectAt)
	rc.DropLink()
	time.Sleep(spec.DisconnectFor)
	time.Sleep(spec.Exec - spec.DisconnectAt)
	return rc.Commit(spec.ID)
}

// runClient executes one workload transaction against the server,
// physically dropping the connection for disconnected specs.
func runClient(addr string, spec workload.Spec) error {
	obj := fmt.Sprintf("Flight/AZ%d", spec.Object)
	cn, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer func() {
		if cn != nil {
			cn.Close()
		}
	}()
	if err := cn.Begin(spec.ID); err != nil {
		return err
	}
	if err := cn.Invoke(spec.ID, obj, spec.Kind.Class(), ""); err != nil {
		return err
	}
	if err := cn.Apply(spec.ID, obj, spec.Operand); err != nil {
		return err
	}
	if !spec.Disconnects {
		time.Sleep(spec.Exec)
		return cn.Commit(spec.ID)
	}

	// Think until the network "fails": drop the TCP connection for real.
	time.Sleep(spec.DisconnectAt)
	cn.Close()
	cn = nil
	time.Sleep(spec.DisconnectFor)

	// Reconnect, attach, awake. The server may still be tearing down the
	// old connection (which is what puts the transaction to sleep), so
	// poll briefly until the state flips.
	cn2, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cn2.Close()
	if err := cn2.Attach(spec.ID); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cn2.State(spec.ID)
		if err != nil {
			return err
		}
		if st == "Sleeping" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transaction stuck in %s after reconnect", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resumed, err := cn2.Awake(spec.ID)
	if err != nil {
		return err
	}
	if !resumed {
		return fmt.Errorf("aborted: sleep-conflict")
	}
	time.Sleep(spec.Exec - spec.DisconnectAt)
	return cn2.Commit(spec.ID)
}
