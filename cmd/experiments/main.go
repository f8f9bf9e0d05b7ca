// Command experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the Section VII ablations:
//
//	experiments -run tableI   # Table I  — operation class compatibilities
//	experiments -run tableII  # Table II — reconciliation trace (100→104→106)
//	experiments -run fig1     # Fig. 1   — analytic execution-time surfaces
//	experiments -run fig2     # Fig. 2   — analytic abort-probability surfaces
//	experiments -run fig3a    # Fig. 3a  — emulated exec time vs α (GTM vs 2PL)
//	experiments -run fig3b    # Fig. 3b  — emulated abort %% vs β (GTM vs 2PL)
//	experiments -run ablation # Section VII extensions under contention
//	experiments -run classes  # the 15 VI.B workload classes C = ⟨T, op, X, η⟩
//	experiments -run sensitivity # Fig. 3b's dependence on the 2PL timeout ratio
//	experiments -run itinerary # multi-object package tours (Section II) GTM vs 2PL
//	experiments -run modelcheck # Eq. 5's predicted speed-up vs the emulation's
//	experiments -run starvation # §VII starvation control under a hostile mix
//	experiments -run storage  # storage engines: mem vs disk under page-cache pressure
//	experiments -run all      # everything (default)
//
// Use -n to scale the emulated population (default 1000, the paper's size)
// and -seed to vary the workload.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"preserial/internal/analytic"
	"preserial/internal/core"
	"preserial/internal/metrics"
	"preserial/internal/sem"
	"preserial/internal/sim"
	"preserial/internal/workload"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, tableI, tableII, fig1, fig2, fig3a, fig3b, ablation, classes, sensitivity, itinerary, modelcheck, starvation, storage")
	n := flag.Int("n", 1000, "emulated transaction population (fig3*, ablation); committed transactions per configuration (storage)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.StringVar(&csvDir, "csv", "", "also write figure data as CSV files into this directory")
	flag.StringVar(&jsonPath, "json", "", "write the storage benchmark report as JSON to this file")
	flag.Parse()
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "csv dir: %v\n", err)
			os.Exit(1)
		}
	}

	exps := map[string]func(int, int64) error{
		"tableI":      func(int, int64) error { return tableI() },
		"tableII":     func(int, int64) error { return tableII() },
		"fig1":        func(int, int64) error { return fig1() },
		"fig2":        func(int, int64) error { return fig2() },
		"fig3a":       fig3a,
		"fig3b":       fig3b,
		"ablation":    ablation,
		"classes":     classes,
		"sensitivity": sensitivity,
		"itinerary":   itinerary,
		"modelcheck":  modelcheck,
		"starvation":  starvation,
		"storage":     storageBench,
	}
	order := []string{"tableI", "tableII", "fig1", "fig2", "fig3a", "fig3b", "ablation", "classes", "sensitivity", "itinerary", "modelcheck", "starvation", "storage"}

	names := order
	if *run != "all" {
		if _, ok := exps[*run]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *run, strings.Join(order, ", "))
			os.Exit(2)
		}
		names = []string{*run}
	}
	for _, name := range names {
		if err := exps[name](*n, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n\n", title)
}

// csvDir, when set via -csv, receives one CSV file per figure.
var csvDir string

// jsonPath, when set via -json, receives the storage benchmark report.
var jsonPath string

// writeCSV dumps rows (first row = header) to <csvDir>/<name>.csv.
func writeCSV(name string, rows [][]string) {
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	fmt.Printf("(wrote %s)\n", path)
}

// tableI prints the operation-class compatibility matrix.
func tableI() error {
	header("Table I — class compatibilities")
	fmt.Printf("%-16s", "")
	for _, c := range sem.Classes {
		fmt.Printf(" %-16s", c)
	}
	fmt.Println()
	for _, a := range sem.Classes {
		fmt.Printf("%-16s", a)
		for _, b := range sem.Classes {
			mark := "-"
			if sem.Compatible(a, b) {
				mark = "compatible"
			}
			fmt.Printf(" %-16s", mark)
		}
		fmt.Println()
	}
	return nil
}

// tableII replays the paper's reconciliation example through the real GTM
// and prints each step.
func tableII() error {
	header("Table II — reconciliation of two add-transactions on X (X=100)")
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(100))
	m := core.NewManager(store, core.WithHistory())
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		return err
	}
	addOp := sem.Op{Class: sem.AddSub}

	step := func(aCode, bCode string) {
		perm, _ := m.Permanent("X", "")
		aTemp, errA := m.ReadValue("A", "X")
		bTemp, errB := m.ReadValue("B", "X")
		at, bt := "-", "-"
		if errA == nil {
			at = aTemp.String()
		}
		if errB == nil {
			bt = bTemp.String()
		}
		fmt.Printf("%-12s %-12s %12s %10s %10s\n", aCode, bCode, perm, at, bt)
	}

	fmt.Printf("%-12s %-12s %12s %10s %10s\n", "A code", "B code", "X_permanent", "A_temp", "B_temp")
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(m.Begin("A"))
	step("begin", "-")
	_, err := m.Invoke("A", "X", addOp)
	must(err)
	must(m.Begin("B"))
	step("read X", "begin")
	must(m.Apply("A", "X", sem.Int(1)))
	_, err = m.Invoke("B", "X", addOp)
	must(err)
	step("X=X+1", "read X")
	must(m.Apply("B", "X", sem.Int(2)))
	step("write X", "X=X+2")
	must(m.Apply("A", "X", sem.Int(3)))
	step("X=X+3", "write X")
	must(m.RequestCommit("A"))
	step("commit", "-")
	must(m.RequestCommit("B"))
	step("-", "commit")

	h := m.History()
	fmt.Printf("\nX_new^A = %s (paper: 104), X_new^B = %s (paper: 106)\n",
		h[0].New, h[1].New)
	if h[0].New.Int64() != 104 || h[1].New.Int64() != 106 {
		return fmt.Errorf("trace deviates from Table II")
	}
	return nil
}

// fig1 prints the analytic execution-time surfaces: one 2PL column and one
// pre-serialization column per incompatibility level.
func fig1() error {
	header("Fig. 1 — average transaction execution time (analytic, τe=1, n=100)")
	const n = 100
	if err := analytic.Validate(n); err != nil {
		return err
	}
	twoPL := &metrics.Series{Name: "2PL"}
	levels := []float64{0, 0.25, 0.5, 0.75, 1}
	ours := make([]*metrics.Series, len(levels))
	for li, l := range levels {
		ours[li] = &metrics.Series{Name: fmt.Sprintf("ours(i=%.0f%%)", l*100)}
	}
	for c := 0; c <= n; c += 10 {
		cf := float64(c) / n
		twoPL.Add(cf*100, analytic.TwoPLTime(n, c, 1))
		for li, l := range levels {
			ours[li].Add(cf*100, analytic.OurTime(n, c, int(l*n), 1))
		}
	}
	fmt.Print(metrics.Table("conflicts %", append([]*metrics.Series{twoPL}, ours...)...))
	rows := [][]string{{"conflicts_pct", "twopl", "ours_i0", "ours_i25", "ours_i50", "ours_i75", "ours_i100"}}
	for idx, p := range twoPL.Points {
		row := []string{fmt.Sprint(p.X), fmt.Sprint(p.Y)}
		for _, o := range ours {
			row = append(row, fmt.Sprint(o.Points[idx].Y))
		}
		rows = append(rows, row)
	}
	writeCSV("fig1", rows)
	fmt.Println("\nShape check: ours ≤ 2PL everywhere; ours(i=0, c=100%) = 1.0 vs 2PL 1.5 (the 50% best case);")
	fmt.Println("ours(i=100%) coincides with 2PL.")
	return nil
}

// fig2 prints the abort-probability surfaces of sleeping transactions.
func fig2() error {
	header("Fig. 2 — abort % of disconnected/sleeping transactions (analytic)")
	for _, pi := range []float64{0.1, 0.3, 0.5, 1.0} {
		fmt.Printf("P(i) = %.0f%% (incompatible operations)\n", pi*100)
		series := []*metrics.Series{}
		for _, pd := range []float64{0.1, 0.3, 0.5} {
			s := &metrics.Series{Name: fmt.Sprintf("P(d)=%.0f%%", pd*100)}
			for pc := 0.0; pc <= 1.0001; pc += 0.2 {
				s.Add(pc*100, 100*analytic.AbortProbability(pd, pc, pi))
			}
			series = append(series, s)
		}
		fmt.Print(metrics.Table("conflicts %", series...))
		fmt.Println()
	}
	var rows [][]string
	rows = append(rows, []string{"p_i", "p_d", "conflicts_pct", "abort_pct"})
	for _, r := range analytic.Fig2([]float64{0.1, 0.3, 0.5, 1.0}, 5) {
		rows = append(rows, []string{
			fmt.Sprint(r.PI), fmt.Sprint(r.PD), fmt.Sprint(r.PC * 100), fmt.Sprint(100 * r.Abort),
		})
	}
	writeCSV("fig2", rows)
	fmt.Println("2PL baseline (timeout-supervised, exponential disconnections, mean 8s):")
	s := &metrics.Series{Name: "2PL abort % (P(d)=30%)"}
	for _, timeout := range []float64{0, 2, 4, 8, 16, 32} {
		s.Add(timeout, 100*analytic.TwoPLAbortProbability(0.3, timeout, 8))
	}
	fmt.Print(metrics.Table("timeout s", s))
	return nil
}

// fig3Workloads builds the α- or β-sweep populations of Section VI.B.
func fig3Params(n int, seed int64) workload.Params {
	p := workload.DefaultParams()
	p.N = n
	p.Seed = seed
	return p
}

const (
	fig3Initial = int64(1_000_000) // large stock: no constraint aborts in VI.B
	fig3Timeout = 2 * time.Second
)

// fig3a reproduces the left plot of Fig. 3: average execution time versus α
// with β = 0.05.
func fig3a(n int, seed int64) error {
	header(fmt.Sprintf("Fig. 3a — emulated mean execution time vs α (β=0.05, N=%d, 5 objects, 0.5s inter-arrival)", n))
	gtm := &metrics.Series{Name: "GTM s"}
	twoPL := &metrics.Series{Name: "2PL s"}
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		p := fig3Params(n, seed)
		p.Alpha = alpha
		p.Beta = 0.05
		specs, err := workload.Generate(p)
		if err != nil {
			return err
		}
		cmp, err := sim.Compare(specs, p.Objects, fig3Initial, fig3Timeout)
		if err != nil {
			return err
		}
		gtm.Add(alpha, cmp.GTM.MeanLatency)
		twoPL.Add(alpha, cmp.TwoPL.MeanLatency)
	}
	fmt.Print(metrics.Table("alpha", gtm, twoPL))
	rows := [][]string{{"alpha", "gtm_s", "twopl_s"}}
	for idx, p := range gtm.Points {
		rows = append(rows, []string{fmt.Sprint(p.X), fmt.Sprint(p.Y), fmt.Sprint(twoPL.Points[idx].Y)})
	}
	writeCSV("fig3a", rows)
	fmt.Println("\nShape check: GTM time falls as α grows (more compatible subtractions);")
	fmt.Println("2PL stays high regardless — it serializes every update.")
	return nil
}

// fig3b reproduces the right plot of Fig. 3: abort percentage versus β with
// α = 0.7.
func fig3b(n int, seed int64) error {
	header(fmt.Sprintf("Fig. 3b — emulated abort %% vs β (α=0.7, N=%d, 2PL sleeping timeout %v)", n, fig3Timeout))
	gtm := &metrics.Series{Name: "GTM %"}
	twoPL := &metrics.Series{Name: "2PL %"}
	for _, beta := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3} {
		p := fig3Params(n, seed)
		p.Alpha = 0.7
		p.Beta = beta
		specs, err := workload.Generate(p)
		if err != nil {
			return err
		}
		cmp, err := sim.Compare(specs, p.Objects, fig3Initial, fig3Timeout)
		if err != nil {
			return err
		}
		gtm.Add(beta, cmp.GTM.AbortPct)
		twoPL.Add(beta, cmp.TwoPL.AbortPct)
	}
	fmt.Print(metrics.Table("beta", gtm, twoPL))
	rows := [][]string{{"beta", "gtm_abort_pct", "twopl_abort_pct"}}
	for idx, p := range gtm.Points {
		rows = append(rows, []string{fmt.Sprint(p.X), fmt.Sprint(p.Y), fmt.Sprint(twoPL.Points[idx].Y)})
	}
	writeCSV("fig3b", rows)
	fmt.Println("\nShape check: both grow with β; the GTM aborts only sleepers that an")
	fmt.Println("incompatible operation overtook, so its curve stays below 2PL's timeout kills.")
	return nil
}

// ablation compares the Section VII extensions on a contended population.
func ablation(n int, seed int64) error {
	header(fmt.Sprintf("Ablations — Section VII extensions (α=0.7, β=0.1, N=%d)", n))
	p := fig3Params(n, seed)
	p.Alpha = 0.7
	p.Beta = 0.1
	specs, err := workload.Generate(p)
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		opts []core.Option
	}{
		{"baseline GTM", nil},
		{"no compatibility (strict conflicts)", []core.Option{core.WithConflictFunc(core.StrictRWConflict)}},
		{"waiter cap 3 (starvation control)", []core.Option{core.WithIncompatibleWaiterCap(3)}},
		{"priorities", []core.Option{core.WithPriorities()}},
	}
	fmt.Printf("%-38s %12s %10s %12s\n", "configuration", "mean exec s", "abort %", "p95 exec s")
	for _, r := range rows {
		res, _, err := sim.RunGTM(specs, sim.GTMConfig{
			Objects: p.Objects, InitialValue: fig3Initial, Options: r.opts,
		})
		if err != nil {
			return err
		}
		s := sim.Summarize(res)
		fmt.Printf("%-38s %12.3f %10.2f %12.3f\n", r.name, s.MeanLatency, s.AbortPct, s.P95Latency)
	}
	return nil
}

// classes prints the 15 transaction classes of the VI.B population.
func classes(n int, seed int64) error {
	header(fmt.Sprintf("Workload classes C = ⟨T, op, X, η⟩ (α=0.7, β=0.05, N=%d)", n))
	p := fig3Params(n, seed)
	specs, err := workload.Generate(p)
	if err != nil {
		return err
	}
	counts := workload.CountByClass(specs)
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-20s %5d transactions\n", name, counts[name])
	}
	sub, disc := workload.Fractions(specs)
	fmt.Printf("\nobserved: subtract fraction %.3f (α=%.2f), disconnection fraction %.3f (β=%.2f)\n",
		sub, p.Alpha, disc, p.Beta)
	return nil
}

// sensitivity sweeps the ratio of the 2PL sleeping timeout to the mean
// disconnection duration — the constant the paper does not specify — and
// shows where the Fig. 3b ordering holds (documented in EXPERIMENTS.md).
func sensitivity(n int, seed int64) error {
	header(fmt.Sprintf("Fig. 3b sensitivity — abort %% vs 2PL timeout (α=0.7, β=0.2, mean disconnection 3s, N=%d)", n))
	p := fig3Params(n, seed)
	p.Alpha = 0.7
	p.Beta = 0.2
	specs, err := workload.Generate(p)
	if err != nil {
		return err
	}
	gtmRes, _, err := sim.RunGTM(specs, sim.GTMConfig{Objects: p.Objects, InitialValue: fig3Initial})
	if err != nil {
		return err
	}
	gtmAbort := sim.Summarize(gtmRes).AbortPct
	fmt.Printf("GTM abort %% (timeout-independent): %.2f\n\n", gtmAbort)
	s := &metrics.Series{Name: "2PL abort %"}
	for _, timeout := range []time.Duration{500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second} {
		res, _, err := sim.RunTwoPL(specs, sim.TwoPLConfig{
			Objects: p.Objects, InitialValue: fig3Initial, SleepTimeout: timeout,
		})
		if err != nil {
			return err
		}
		s.Add(timeout.Seconds(), sim.Summarize(res).AbortPct)
	}
	fmt.Print(metrics.Table("timeout s", s))
	fmt.Println("\nThe GTM's curve beats 2PL whenever the supervision timeout is at most a few")
	fmt.Println("multiples of the typical disconnection; very long timeouts trade those aborts")
	fmt.Println("for the latency collapse visible in Fig. 3a.")
	return nil
}

// itinerary compares the schedulers on the multi-object motivating
// scenario: package tours booking 2–4 resources with think time between
// steps. 2PL's cross-object exclusive locks produce waits and genuine
// deadlocks; the GTM's commuting bookings do not block at all.
func itinerary(n int, seed int64) error {
	header(fmt.Sprintf("Itineraries — Section II package tours, GTM vs 2PL (N=%d)", n))
	p := workload.DefaultItineraryParams()
	p.N = n
	p.Seed = seed
	p.Interarrival = 100 * time.Millisecond
	its, err := workload.GenerateItineraries(p)
	if err != nil {
		return err
	}
	cmp, err := sim.CompareItineraries(its, sim.ItineraryConfig{PerKind: p.PerKind, InitialStock: fig3Initial})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %14s %10s %14s\n", "", "mean exec s", "abort %", "deadlocks")
	fmt.Printf("%-8s %14.3f %10.2f %14d\n", "GTM", cmp.GTM.MeanLatency, cmp.GTM.AbortPct, cmp.GTM.AbortsBy["deadlock"])
	fmt.Printf("%-8s %14.3f %10.2f %14d\n", "2PL", cmp.TwoPL.MeanLatency, cmp.TwoPL.AbortPct, cmp.TwoPL.AbortsBy["deadlock"])
	fmt.Println("\nAll bookings commute, so the GTM runs every tour at think-time speed;")
	fmt.Println("2PL serializes them and its cross-object lock orders deadlock.")
	return nil
}

// modelcheck relates the analytic model (Section VI.A) to the emulation
// (VI.B): for each α it derives the model's i (incompatibility fraction,
// 1−α²) and an overlap-based conflict fraction c, and compares the
// predicted GTM/2PL execution-time ratio (Eq. 5 / Eq. 3) with the ratio
// the emulation actually measures. The model has no queueing, so it is an
// optimistic bound for 2PL; the comparison quantifies that gap instead of
// hiding it.
func modelcheck(n int, seed int64) error {
	header(fmt.Sprintf("Model check — Eq. 5 prediction vs emulation (β=0.05, N=%d)", n))
	const modelN = 100
	fmt.Printf("%-8s %10s %10s %16s %16s\n", "alpha", "c (est)", "i (=1-α²)", "model GTM/2PL", "measured GTM/2PL")
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := fig3Params(n, seed)
		p.Alpha = alpha
		p.Beta = 0.05
		specs, err := workload.Generate(p)
		if err != nil {
			return err
		}
		// Conflict fraction: probability a transaction overlaps at least one
		// other on its object (M/D/∞ heuristic: load per object = λ·τe/K).
		lambda := 1 / p.Interarrival.Seconds()
		load := lambda * p.Exec.Seconds() / float64(p.Objects)
		cFrac := 1 - math.Exp(-load)
		iFrac := workload.ExpectedIncompatibleRate(p)

		c := int(math.Round(cFrac * modelN))
		i := int(math.Round(iFrac * modelN))
		predicted := analytic.OurTime(modelN, c, i, 1) / analytic.TwoPLTime(modelN, c, 1)

		cmp, err := sim.Compare(specs, p.Objects, fig3Initial, fig3Timeout)
		if err != nil {
			return err
		}
		measured := cmp.GTM.MeanLatency / cmp.TwoPL.MeanLatency
		fmt.Printf("%-8.1f %10.2f %10.2f %16.3f %16.3f\n", alpha, cFrac, iFrac, predicted, measured)
	}
	fmt.Println("\nBoth ratios fall with α (the reproduction's core claim). The emulation's")
	fmt.Println("ratios are lower than the model's because Eq. 3 caps a conflict's cost at")
	fmt.Println("τe/2 and ignores queueing, while the emulated 2PL baseline builds real queues")
	fmt.Println("behind long-running lock holders — the model is an optimistic bound for 2PL.")
	return nil
}

// starvation isolates the Section VII starvation problem: a single object
// hammered by compatible subtractions (one every 200 ms, each held 2 s —
// the object is never free) starves the rare incompatible assigns, which
// can only enter when the pending set empties. The waiter cap fixes it by
// refusing new compatible joins once an assign queues.
func starvation(n int, seed int64) error {
	header(fmt.Sprintf("Starvation — incompatible waiters vs a compatible stream (N=%d, 1 object)", n))
	p := fig3Params(n, seed)
	p.Objects = 1
	p.Alpha = 0.97 // a trickle of assigns in a flood of adds
	p.Beta = 0
	p.Interarrival = 200 * time.Millisecond
	specs, err := workload.Generate(p)
	if err != nil {
		return err
	}
	assignLatency := func(opts ...core.Option) (mean float64, worst float64, overall float64, err error) {
		res, _, err := sim.RunGTM(specs, sim.GTMConfig{Objects: 1, InitialValue: fig3Initial, Options: opts})
		if err != nil {
			return 0, 0, 0, err
		}
		byID := make(map[string]sim.Result, len(res))
		for _, r := range res {
			byID[r.ID] = r
		}
		var agg metrics.Agg
		for _, spec := range specs {
			if spec.Kind != workload.Assign {
				continue
			}
			agg.Add(byID[spec.ID].Latency.Seconds())
		}
		return agg.Mean(), agg.Max(), sim.Summarize(res).MeanLatency, nil
	}

	fmt.Printf("%-34s %16s %16s %14s\n", "configuration", "assign mean s", "assign worst s", "overall s")
	base, worstB, overallB, err := assignLatency()
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %16.3f %16.3f %14.3f\n", "baseline GTM", base, worstB, overallB)
	capped, worstC, overallC, err := assignLatency(core.WithIncompatibleWaiterCap(1))
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %16.3f %16.3f %14.3f\n", "waiter cap 1 (§VII)", capped, worstC, overallC)
	fmt.Println("\nThe cap trades a little compatible throughput for bounded assign waits:")
	fmt.Println("once an assign queues, no further adds are admitted until it runs.")
	return nil
}
