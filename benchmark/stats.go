package main

import (
	"math"
	"sort"
)

// summary is the median and quartiles of a sample, with its size.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive" method),
// so spreads printed here match the ones a reader recomputes from the
// record. A single value is its own median and quartiles.
func summarize(values []float64) summary {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: xs[0], Median: xs[0], Q3: xs[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return summary{N: n, Q1: q(1), Median: q(2), Q3: q(3)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// percentile interpolates linearly between the closest ranks (p in [0, 1]).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
