package main

import (
	"math"
	"sort"
)

// summary is the order statistics the ledger prints for one metric.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

// spread is the interquartile distance as a share of the median — the
// repeatability figure the bounds in BENCHMARK.json are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// summarize computes the median and quartiles of v the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), because that is
// what the driver that accepts or rejects a run applies. One sample is its
// own median and quartiles.
func summarize(v []float64) summary {
	n := len(v)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n == 1 {
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{N: n, Median: cut(2), Q1: cut(1), Q3: cut(3)}
}

func median(v []float64) float64 { return summarize(v).Median }

// percentile returns the nearest-rank percentile of a sorted slice. The
// percentile is given in tenths of a percent (990 is p99) so that its rank
// is integer arithmetic.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), permille)-1]
}

func rankOf(n, permille int) int {
	rank := (permille*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailLadder are the percentiles (in tenths of a percent) a latency tail may
// be reported at; p99 is the highest any metric here is named for.
var tailLadder = []int{500, 750, 900, 950, 990}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten of n samples beyond it; a tail read off fewer is one
// outlier's value. It returns 0 when even the median has fewer than ten.
func tailPercentile(n int) int {
	best := 0
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}
