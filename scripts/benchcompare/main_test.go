package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := spec{Name: "cpu_ns_per_event", Better: "lower", Bound: 0.25}
	higher := spec{Name: "tuples_delivered_frac", Better: "higher", Bound: 0.01}
	base := []float64{100, 102, 98, 101, 99}
	for _, c := range []struct {
		name       string
		s          spec
		base, head []float64
		status     string
		wins       int
		change     float64
	}{
		{"flat", lower, base, []float64{101, 100, 99, 100, 98}, statusOK, 3, 0},
		{"better", lower, base, []float64{50, 51, 49, 50, 52}, statusOK, 5, -0.5},
		{"worse within bound", lower, base, []float64{120, 121, 119, 120, 118}, statusOK, 0, 0.2},
		{"worse past bound", lower, base, []float64{130, 131, 129, 130, 128}, statusWorse, 0, 0.3},
		{"base spread too wide", lower, []float64{60, 100, 140, 80, 120}, []float64{100, 100, 100, 100, 100}, statusUnresolved, 2, 0},
		{"head spread too wide", lower, base, []float64{60, 100, 140, 80, 120}, statusUnresolved, 3, 0},
		{"higher is better, held", higher, []float64{1, 1, 1}, []float64{1, 1, 1}, statusOK, 0, 0},
		{"higher is better, lost", higher, []float64{1, 1, 1}, []float64{0.9, 0.9, 0.9}, statusWorse, 0, 0.1},
	} {
		v := judge(c.s, c.base, c.head)
		if v.status != c.status || v.wins != c.wins || math.Abs(v.change-c.change) > 1e-9 {
			t.Errorf("%s: status %q wins %d change %v, want %q %d %v",
				c.name, v.status, v.wins, v.change, c.status, c.wins, c.change)
		}
	}
	if v := judge(lower, base, base); v.baseMed != 100 || v.baseQ1 != 99 || v.baseQ3 != 101 {
		t.Errorf("base median %v IQR %v–%v, want 100, 99–101", v.baseMed, v.baseQ1, v.baseQ3)
	}
	// A metric that was zero at the base and moved is infinitely worse.
	if v := judge(lower, []float64{0, 0}, []float64{1, 1}); v.status != statusWorse || !math.IsInf(v.change, 1) {
		t.Errorf("zero base: status %q change %v", v.status, v.change)
	}
}
