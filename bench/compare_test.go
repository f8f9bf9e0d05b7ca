package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(values ...float64) seriesResult {
	q1, q3 := quartiles(values)
	return seriesResult{Values: values, Median: median(values), Q1: q1, Q3: q3}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tx_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := series(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name string
		def  metricDef
		a, b seriesResult
		want string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"latency up 5%", lower, steady, series(105, 105, 104, 106, 105), verdictOK},
		{"latency up 20%", lower, steady, series(120, 121, 119, 120, 120), verdictRegressed},
		{"latency down 20%", lower, steady, series(80, 81, 79, 80, 80), verdictOK},
		{"rate down 20%", higher, steady, series(80, 81, 79, 80, 80), verdictRegressed},
		{"rate up 20%", higher, steady, series(120, 121, 119, 120, 120), verdictOK},
		{"too noisy to tell", lower, steady, series(60, 140, 100, 80, 120), verdictUnresolved},
	} {
		if got := judge(c.def, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	file := func(commitMS float64) *resultFile {
		f := &resultFile{Meta: resultMeta{Clients: 2, Seconds: 10, Runs: 3}, Workloads: map[string]*workloadResult{}}
		for _, name := range workloadNames {
			wr := &workloadResult{Correct: true, EndToEnd: map[string]seriesResult{}}
			for _, d := range endToEnd {
				s := series(100, 100.5, 99.5)
				if d.Name == "commit_p50_ms" && name == wlMobileSleepers {
					s = series(commitMS, commitMS*1.005, commitMS*0.995)
				}
				s.Unit = d.Unit
				wr.EndToEnd[d.Name] = s
			}
			f.Workloads[name] = wr
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse := write("a.json", file(100)), write("same.json", file(101)), write("worse.json", file(130))

	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 {
		t.Errorf("equal runs: exit code %d, want 0\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows < len(workloadNames)*len(endToEnd) {
		t.Errorf("comparison printed %d lines, want a row per metric x workload", rows)
	}
	out.Reset()
	if code := compareFiles(&out, a, worse); code != 1 {
		t.Errorf("regressed run: exit code %d, want 1", code)
	}
	if !strings.Contains(out.String(), "1 regressed") {
		t.Errorf("summary does not count the regression:\n%s", out.String())
	}
}
