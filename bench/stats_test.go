package main

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{5, 0},         // not even the median has ten samples above it
		{21, 0.50},     // rank 10 → 10 beyond
		{101, 0.90},    // p90 → rank 90, 10 beyond; p95 → 5 beyond
		{201, 0.95},    // p95 → rank 190, 10 beyond
		{1001, 0.99},   // p99 → 10 beyond
		{10001, 0.999}, // p99.9 → 10 beyond
		{100001, 0.9999},
	} {
		p, v := supportedTail(seq(c.n))
		if p != c.wantP {
			t.Errorf("supportedTail(n=%d) percentile = %g, want %g", c.n, p, c.wantP)
			continue
		}
		if p > 0 {
			beyond := c.n - int(v)
			if beyond < tailBeyond {
				t.Errorf("supportedTail(n=%d) left %d samples beyond, want ≥ %d", c.n, beyond, tailBeyond)
			}
		}
	}
}

func TestSliceRatesAndMedianSlice(t *testing.T) {
	// A 5-second window in 5 slices; 10, 20, 30, 40 and 1000 events per slice.
	var events []int64
	per := []int{10, 20, 30, 40, 1000}
	for s, n := range per {
		for k := 0; k < n; k++ {
			events = append(events, int64(s)*1e9+int64(k)*1e5+1e9) // window starts at 1 s
		}
	}
	events = append(events, 0, 7e9) // outside the window
	rates := sliceRates(events, 1e9, 6e9, 5)
	for s, n := range per {
		if !approx(rates[s], float64(n)) {
			t.Errorf("slice %d rate = %g, want %d", s, rates[s], n)
		}
	}
	// The median slice ignores the one outlying slice; the mean would not.
	if got := median(rates); got != 30 {
		t.Errorf("median slice rate = %g, want 30", got)
	}
	if got := cvPct([]float64{10, 10, 10}); got != 0 {
		t.Errorf("cv of equal slices = %g, want 0", got)
	}
	if got := cvPct([]float64{5, 15}); !approx(got, 50) {
		t.Errorf("cv of {5,15} = %g, want 50", got)
	}
}

func TestRateIn(t *testing.T) {
	events := []int64{100, 200, 1_500_000_000, 2_100_000_000, 2_900_000_000}
	// Two half-second intervals; three events fall inside them.
	got := rateIn(events, []int64{0, 500_000_000, 2_000_000_000, 2_500_000_000})
	if !approx(got, 3) {
		t.Errorf("rateIn = %g, want 3", got)
	}
	if got := rateIn(events, nil); got != 0 {
		t.Errorf("rateIn without intervals = %g, want 0", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if !approx(q1, 2.75) || !approx(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if !approx(q1, 1.25) || !approx(q3, 5.75) {
		t.Errorf("quartiles = %g, %g, want 1.25, 5.75", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
