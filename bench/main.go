// Command bench is the repository's benchmark: one harness for the composed
// GTM stack. It assembles four topologies in-process from the public
// functions of internal/* (the calls cmd/gtmd makes), drives each with a
// seeded closed-loop workload, checks the outputs against an exact model,
// and reports end-to-end metrics (untraced) and per-layer metrics (traced,
// through decorators on the seams the program already has, plus isolated
// legs and the program's own obs counters). See README.md.
//
// One run, as BENCHMARK.json invokes it:
//
//	bench --workload cluster_booking --seed 1 --seconds 10 --trace 0
//
// prints a report and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without --workload it runs
// every workload untraced and traced in fresh child processes and writes
// out/results.json; -compare A.json B.json judges two such files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// watchdog bounds one run: the contract gives a run 180 s, and a scheduling
// bug in the program under test must fail the run rather than hang it.
const watchdog = 170 * time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames)+" (empty: run the whole suite in child processes)")
		seed         = flag.Int64("seed", 1, "seed of the per-client request streams")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured window in seconds")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		quick        = flag.Bool("quick", false, "smoke mode: small tables, 1 s windows (numbers are not comparable)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		runs         = flag.Int("runs", 1, "suite mode: untraced runs per workload, on consecutive seeds")
		out          = flag.String("out", "", "suite mode: result file (default <outdir>/results.json)")
		outDir       = flag.String("outdir", "bench/out", "directory for span files, budget tables and suite results")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workloadName == "":
		os.Exit(runSuite(suiteOptions{Seed: *seed, Seconds: *seconds, Quick: *quick, Runs: *runs, Out: *out, OutDir: *outDir}))
	}

	if *quick && !flagSet("seconds") {
		*seconds = 1
	}
	if *seconds <= 0 {
		fatal(2, "bench: -seconds must be positive")
	}
	time.AfterFunc(watchdog, func() { fatal(3, "bench: run exceeded %s, giving up", watchdog) })

	res, err := runWorkload(runOptions{Workload: *workloadName, Seed: *seed, Seconds: *seconds,
		Trace: *trace != 0, Quick: *quick, OutDir: *outDir})
	if err != nil {
		fatal(1, "bench: %v", err)
	}
	if res.info.Budget != nil {
		if err := writeBudget(*outDir, res.info.Budget); err != nil {
			fatal(1, "bench: %v", err)
		}
	}
	printReport(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, "bench: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// flagSet reports whether the flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// printReport writes the human-readable part of a run's output.
func printReport(w *os.File, res *result) {
	in := res.info
	mode := "untraced (end-to-end metrics)"
	if in.Traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", in.Workload, in.Seed, mode)
	fmt.Fprintf(w, "clients %d (min(nproc,%d))  nproc %d  GOMAXPROCS %d  closed loop  warm-up %s  measured %gs in %d slices\n",
		in.Clients, maxClients, in.NProc, in.GoMaxProcs, warmup, in.Seconds, measuredSlices)
	fmt.Fprintf(w, "flush policy: real fsync under %s, SyncDelay 0, WAL group commit on, no group window\n", os.TempDir())
	for _, n := range in.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if in.Budget != nil {
		in.Budget.print(w)
	}
	if in.TracePath != "" {
		fmt.Fprintf(w, "spans written to %s\n", in.TracePath)
	}
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d\n", res.Correct, res.Attempted, res.Failed)
}
