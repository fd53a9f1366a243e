package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// interval is one span on the host clock, [start, end).
type interval struct{ start, end time.Time }

// coveredWithin returns how much of parent the union of children covers.
// Children may overlap each other (stage builds run in parallel under a
// worker pool) and may stick out of parent; only the union's intersection
// with parent counts, so no instant is subtracted twice.
func coveredWithin(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// selfTime is parent's duration minus the part its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - coveredWithin(parent, children)
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail is a latency tail: the value, the nearest-rank percentile it is,
// and the sample count it came from.
type tail struct {
	Value      float64
	Percentile float64
	N          int
}

func (t tail) String() string {
	return fmt.Sprintf("p%.1f of %d samples", t.Percentile, t.N)
}

// tailOf reports the highest nearest-rank percentile that still has at
// least tailMinBeyond samples above it. With fewer than 2*tailMinBeyond
// samples that percentile would fall below the median, so the tail is the
// maximum (p100) instead — a tail never reads lower than the median.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 2*tailMinBeyond {
		return tail{Value: s[n-1], Percentile: 100, N: n}
	}
	k := n - 1 - tailMinBeyond // s[k+1:] holds exactly tailMinBeyond samples
	return tail{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), N: n}
}
