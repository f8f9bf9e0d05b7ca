package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

const benchmarkJSONPath = "../BENCHMARK.json"

// benchmarkJSON mirrors the file at the repository root.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []jsonWorkload   `json:"workloads"`
	EndToEnd   []jsonEndToEnd   `json:"end_to_end"`
	PerLayer   []jsonLayerEntry `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// specJSON is BENCHMARK.json as spec.go defines it.
func specJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, name := range workloadNames {
		b.Workloads = append(b.Workloads, jsonWorkload{Name: name, Why: workloadWhy[name]})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonEndToEnd{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayerEntry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return b
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want := specJSON()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkJSONPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(benchmarkJSONPath)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestSpecMatchesBenchmarkJSON -update` to create it)", err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and spec.go disagree; rerun with -update after changing spec.go\n got %+v\nwant %+v", got, want)
	}
}

// The limits the benchmark contract puts on BENCHMARK.json.
func TestSpecWithinContract(t *testing.T) {
	b := specJSON()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the name syntax", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit syntax", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, other := range b.EndToEnd {
				if other.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %g", other.Name, other.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range b.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit syntax", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	data, _ := json.Marshal(b)
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, limit 64 KiB", len(data))
	}
	// Every per-layer metric names its layer and how it is obtained.
	for _, d := range perLayer {
		if d.Layer == "" || d.Source == "" || !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s: layer %q / source %q incomplete", d.Name, d.Layer, d.Source)
		}
	}
}
