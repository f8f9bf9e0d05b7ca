// Package metrics provides the small statistics toolkit used by the
// simulator and the experiment harness: streaming aggregates and labeled
// series formatted as the rows the paper's figures plot.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Agg is a streaming aggregate over float64 samples. The zero value is
// ready to use.
type Agg struct {
	n          uint64
	sum, sumSq float64
	min, max   float64
}

// Add records one sample.
func (a *Agg) Add(x float64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	a.sum += x
	a.sumSq += x * x
}

// AddDuration records a duration in seconds.
func (a *Agg) AddDuration(d time.Duration) { a.Add(d.Seconds()) }

// N returns the sample count.
func (a *Agg) N() uint64 { return a.n }

// Sum returns the sample sum.
func (a *Agg) Sum() float64 { return a.sum }

// Mean returns the sample mean (0 with no samples).
func (a *Agg) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Var returns the population variance (0 with fewer than 2 samples).
func (a *Agg) Var() float64 {
	if a.n < 2 {
		return 0
	}
	m := a.Mean()
	v := a.sumSq/float64(a.n) - m*m
	if v < 0 {
		return 0 // numerical noise
	}
	return v
}

// Std returns the population standard deviation.
func (a *Agg) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest sample (0 with no samples).
func (a *Agg) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest sample (0 with no samples).
func (a *Agg) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// String summarizes the aggregate.
func (a *Agg) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		a.n, a.Mean(), a.Std(), a.Min(), a.Max())
}

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points — one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Ys returns the y values in x order.
func (s *Series) Ys() []float64 {
	pts := make([]Point, len(s.Points))
	copy(pts, s.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Y
	}
	return out
}

// Table renders one or more series that share the same x grid as an aligned
// text table, the format the experiment harness prints for every figure.
func Table(xLabel string, series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	// Collect the union of x values.
	xsSet := make(map[float64]bool)
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12.4g", x)
		for _, s := range series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, " %14.6g", y)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
