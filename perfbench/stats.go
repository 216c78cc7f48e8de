package main

import (
	"math"
	"slices"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile
// is only trusted when at least this many samples lie beyond it, so a
// p99 needs 1000 samples and a p90 needs 100.
const minBeyond = 10

// samples is a set of latency samples in nanoseconds.
type samples []int64

func (d samples) sorted() samples {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// quantile returns the nearest-rank q-quantile of d: the ⌈q·n⌉-th
// smallest sample. It returns 0 on an empty set.
func (d samples) quantile(q float64) int64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	return s[nearestRank(len(s), q)-1]
}

// nearestRank is the 1-based rank of the q-quantile among n samples.
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(rank, n))
}

// tailTrusted reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func tailTrusted(n int, q float64) bool {
	return n > 0 && n-nearestRank(n, q) >= minBeyond
}

func (d samples) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d {
		sum += float64(v)
	}
	return sum / float64(len(d))
}

func ms(ns int64) float64   { return float64(ns) / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
