package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// keysOf returns a metric set's names, sorted.
func keysOf(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestQuickSmoke runs every workload untraced and traced in smoke mode (small
// tables, half-second windows) and checks what a run emits against
// BENCHMARK.json: exactly its workload and metric names, each with its unit,
// the oracle passing and no failed call.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	data, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	wantE2E := make(map[string]string)
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	t.Setenv("TMPDIR", t.TempDir())
	outDir := t.TempDir()

	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runOptions{Workload: w.Name, Seed: 1, Seconds: 0.5, Trace: traced, Quick: true, OutDir: outDir})
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d notes=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.info.Notes)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			// The contract line must carry exactly these keys.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var emitted struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int64                 `json:"attempted"`
				Failed    *int64                 `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &emitted); err != nil {
				t.Fatal(err)
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal(line, &top); err != nil {
				t.Fatal(err)
			}
			if len(top) != 4 || emitted.Correct == nil || emitted.Attempted == nil || emitted.Failed == nil {
				t.Errorf("%s (traced=%v): result line has keys %v, want correct, attempted, failed, metrics", w.Name, traced, top)
			}
			if len(emitted.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): %d metrics emitted, BENCHMARK.json lists %d\n got %v",
					w.Name, traced, len(emitted.Metrics), len(want), keysOf(emitted.Metrics))
			}
			for name, unit := range want {
				m, ok := emitted.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (traced=%v): metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s (traced=%v): %s has unit %q, want %q", w.Name, traced, name, m.Unit, unit)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s reads 0", w.Name, name)
				}
			}
			if traced {
				b := res.info.Budget
				if b == nil || b.Commits == 0 {
					t.Errorf("%s: traced run produced no commit budget", w.Name)
				} else if diff := b.sumUS() - b.MeanCommitUS; diff > 0.01*b.MeanCommitUS || diff < -0.01*b.MeanCommitUS {
					t.Errorf("%s: budget rows sum to %g us, mean traced commit is %g us", w.Name, b.sumUS(), b.MeanCommitUS)
				}
				if _, err := os.Stat(res.info.TracePath); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
		}
	}
}
