package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Suite mode runs every workload in freshly exec'd children of this binary
// (clean RSS, GC and store-driver registry per run): `runs` untraced runs on
// consecutive seeds, then one traced run, and gathers what they print into
// one result file that -compare reads.

type suiteOptions struct {
	Seed    int64
	Seconds float64
	Quick   bool
	Runs    int
	Out     string
	OutDir  string
}

// resultFile is the schema of a suite's output.
type resultFile struct {
	Meta      resultMeta                 `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type resultMeta struct {
	Clients    int     `json:"clients"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Flush      string  `json:"flush_policy"`
	Taken      string  `json:"taken"`
}

// seriesResult is one end-to-end metric over a suite's untraced runs.
type seriesResult struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type workloadResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	EndToEnd  map[string]seriesResult `json:"end_to_end"`
	PerLayer  map[string]metricValue  `json:"per_layer"`
	Budget    *budget                 `json:"budget,omitempty"`
}

// runChild runs one workload in a child process and parses its result line.
func runChild(o suiteOptions, workload string, seed int64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64), "-trace", traceArg, "-outdir", o.OutDir}
	if o.Quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s (seed %d): %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s (seed %d): no result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runSuite runs everything and returns the process exit code.
func runSuite(o suiteOptions) int {
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.Quick && o.Seconds >= runSeconds {
		o.Seconds = 1
	}
	if o.Out == "" {
		o.Out = filepath.Join(o.OutDir, "results.json")
	}
	file := resultFile{
		Meta: resultMeta{Clients: clientCount(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Seed: o.Seed, Runs: o.Runs, Seconds: o.Seconds, Quick: o.Quick,
			Flush: "real fsync, SyncDelay 0, WAL group commit on, no group window",
			Taken: time.Now().UTC().Format(time.RFC3339)},
		Workloads: make(map[string]*workloadResult),
	}
	fmt.Printf("clients %d  nproc %d  GOMAXPROCS %d  %s  %d untraced run(s) + 1 traced run per workload, %gs each\n",
		file.Meta.Clients, file.Meta.NProc, file.Meta.GoMaxProcs, file.Meta.GoVersion, o.Runs, o.Seconds)
	exit := 0
	for _, name := range workloadNames {
		wr := &workloadResult{Correct: true, EndToEnd: make(map[string]seriesResult)}
		file.Workloads[name] = wr
		series := make(map[string][]float64)
		for r := 0; r < o.Runs; r++ {
			res, err := runChild(o, name, o.Seed+int64(r), false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				wr.Correct = false
				exit = 1
				continue
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for _, d := range endToEnd {
				series[d.Name] = append(series[d.Name], res.Metrics[d.Name].Value)
			}
		}
		for _, d := range endToEnd {
			q1, q3 := quartiles(series[d.Name])
			wr.EndToEnd[d.Name] = seriesResult{Unit: d.Unit, Values: series[d.Name], Median: median(series[d.Name]), Q1: q1, Q3: q3}
		}
		res, err := runChild(o, name, o.Seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			wr.Correct = false
			exit = 1
		} else {
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.PerLayer = res.Metrics
			wr.Budget = readBudget(o.OutDir, name)
		}
		if !wr.Correct {
			exit = 1
		}
		printWorkload(name, wr)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(o.Out), 0o755); err == nil {
			err = os.WriteFile(o.Out, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing results:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", o.Out)
	return exit
}

// budgetPath is where a traced run leaves its budget table for the suite.
func budgetPath(outDir, workload string) string {
	return filepath.Join(outDir, "budget-"+workload+".json")
}

func writeBudget(outDir string, b *budget) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(budgetPath(outDir, b.Workload), append(data, '\n'), 0o644)
}

func readBudget(outDir, workload string) *budget {
	data, err := os.ReadFile(budgetPath(outDir, workload))
	if err != nil {
		return nil
	}
	var b budget
	if json.Unmarshal(data, &b) != nil {
		return nil
	}
	return &b
}

// printWorkload prints one workload's part of the suite report.
func printWorkload(name string, wr *workloadResult) {
	fmt.Printf("\n== %s  correct %v  attempted %d  failed %d\n", name, wr.Correct, wr.Attempted, wr.Failed)
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		spread := 0.0
		if s.Median != 0 {
			spread = 100 * (s.Q3 - s.Q1) / s.Median
		}
		fmt.Printf("  %-40s %14.4f %-6s (n=%d, IQR %.1f%% of median, bound %.1f%%)\n",
			d.Name, s.Median, s.Unit, len(s.Values), spread, 100*d.Bound)
	}
	for _, d := range perLayer {
		if m, ok := wr.PerLayer[d.Name]; ok {
			fmt.Printf("  %-40s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if wr.Budget != nil {
		if s, ok := wr.EndToEnd["commit_p50_ms"]; ok {
			wr.Budget.UntracedP50MS = s.Median
		}
		wr.Budget.print(os.Stdout)
		if wr.Budget.UntracedP50MS > 0 {
			fmt.Printf("  untraced commit_p50_ms %.4f; traced mean %.4f ms; client.trace_overhead_pct %.1f\n",
				wr.Budget.UntracedP50MS, wr.Budget.MeanCommitUS/1e3, wr.PerLayer["client.trace_overhead_pct"].Value)
		}
	}
}
