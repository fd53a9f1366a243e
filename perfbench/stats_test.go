package main

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func span(from, to int) interval { return interval{at(from), at(to)} }

func TestSelfTimeUnionOfOverlappingChildren(t *testing.T) {
	parent := span(0, 100)
	cases := []struct {
		name     string
		children []interval
		self     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{span(10, 20), span(30, 50)}, 70 * time.Millisecond},
		// Two workers building at once: [10,40) and [20,60) overlap on
		// [20,40), which must be subtracted once, not twice.
		{"overlapping pair", []interval{span(10, 40), span(20, 60)}, 50 * time.Millisecond},
		{"nested", []interval{span(10, 80), span(20, 30), span(40, 50)}, 30 * time.Millisecond},
		{"touching", []interval{span(10, 20), span(20, 30)}, 80 * time.Millisecond},
		{"unsorted chain", []interval{span(50, 70), span(10, 30), span(25, 55)}, 40 * time.Millisecond},
		// A shared build that started before the parent and one that ends
		// after it count only inside the parent.
		{"clipped", []interval{span(-50, 10), span(90, 150)}, 80 * time.Millisecond},
		{"outside", []interval{span(-50, -10), span(120, 150)}, 100 * time.Millisecond},
		{"covering", []interval{span(-1, 101), span(10, 20)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.self {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.self)
		}
	}
}

func TestSelfTimeNeverNegativeUnderParallelism(t *testing.T) {
	// Parallelism 2: two staggered lanes of back-to-back builds together
	// cover more child time than the parent lasts.
	parent := span(0, 100)
	var children []interval
	for s := 0; s < 100; s += 20 {
		children = append(children, span(s, s+20), span(s+5, s+25))
	}
	if got := selfTime(parent, children); got != 0 {
		t.Fatalf("self time %v, want 0 (children cover the parent)", got)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	cases := []struct {
		n     int
		value float64
		pct   float64
	}{
		// Below 2*tailMinBeyond samples a percentile with ten samples
		// beyond it would sit under the median, so the tail is the max.
		{1, 1, 100},
		{19, 19, 100},
		// From 20 samples: the value with exactly ten samples above it.
		{20, 10, 50},
		{27, 17, 100 * 17.0 / 27},
		{100, 90, 90},
		{1000, 990, 99},
	}
	for _, c := range cases {
		tl := tailOf(seq(c.n))
		if tl.Value != c.value || math.Abs(tl.Percentile-c.pct) > 1e-9 || tl.N != c.n {
			t.Errorf("n=%d: tail %+v, want value %v at p%.3f", c.n, tl, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if tl.Percentile < 100 && beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailMinBeyond)
		}
	}
	if tl := tailOf(nil); !math.IsNaN(tl.Value) {
		t.Errorf("empty tail %v, want NaN", tl.Value)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median %v", m)
	}
}
