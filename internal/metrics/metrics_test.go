package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAggBasics(t *testing.T) {
	var a Agg
	if a.Mean() != 0 || a.Std() != 0 || a.Min() != 0 || a.Max() != 0 || a.N() != 0 {
		t.Error("zero Agg must report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 || a.Sum() != 40 {
		t.Errorf("n=%d sum=%g", a.N(), a.Sum())
	}
	if a.Mean() != 5 {
		t.Errorf("mean = %g", a.Mean())
	}
	if a.Std() != 2 { // classic example with σ = 2
		t.Errorf("std = %g", a.Std())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("min=%g max=%g", a.Min(), a.Max())
	}
	if !strings.Contains(a.String(), "n=8") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestAggDuration(t *testing.T) {
	var a Agg
	a.AddDuration(1500 * time.Millisecond)
	if a.Mean() != 1.5 {
		t.Errorf("mean = %g", a.Mean())
	}
}

func TestAggVarianceNeverNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var a Agg
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Scale into a sane range to avoid float overflow noise.
			a.Add(math.Mod(x, 1e6))
		}
		return a.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := &Series{Name: "2PL"}
	b := &Series{Name: "GTM"}
	for i := 0; i <= 2; i++ {
		a.Add(float64(i), float64(i)*2)
		b.Add(float64(i), float64(i))
	}
	b.Add(3, 99) // extra x only in one series

	tbl := Table("conflicts", a, b)
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if len(lines) != 5 { // header + 4 x values
		t.Fatalf("table:\n%s", tbl)
	}
	if !strings.Contains(lines[0], "2PL") || !strings.Contains(lines[0], "GTM") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[4], "-") {
		t.Errorf("missing-value marker absent: %q", lines[4])
	}
	if got := a.Ys(); len(got) != 3 || got[2] != 4 {
		t.Errorf("Ys = %v", got)
	}
	if Table("x") != "" {
		t.Error("no series must render empty")
	}
}

func TestSeriesYsSorted(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	ys := s.Ys()
	if ys[0] != 10 || ys[1] != 20 || ys[2] != 30 {
		t.Errorf("Ys = %v", ys)
	}
}
