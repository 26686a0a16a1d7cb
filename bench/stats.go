package main

import (
	"math"
	"sort"
	"time"
)

// summary describes one sample of timings or counts; the named value of a
// metric is always the median.
type summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// exclusiveQuartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive" method),
// which is what the acceptance rule for run-to-run spread is written in.
func exclusiveQuartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := exclusiveQuartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
