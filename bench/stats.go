package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between closest ranks; NaN for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// undisturbed is the lower quartile of the times of blocks of identical
// work. On a shared host noise only ever adds time, and it comes in bursts
// of seconds that slow a run of consecutive blocks by 20-40 %: a median
// over blocks then flips with whether the bursts covered half the run,
// while the lower quartile moves only when three quarters were disturbed. A
// change to the program moves every block, and so moves the lower quartile
// as much as the median.
func undisturbed(v []float64) float64 { return quantile(sorted(v), 0.25) }

// tailPercentiles are the tail candidates of the reporting rule, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the reporting rule "median plus the highest
// percentile with at least ten samples beyond it": it returns the highest
// candidate p such that n*(1-p/100) >= 10, or 50 when the sample is too
// small for any tail (then only the median is reported).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// Integer arithmetic: n*(1000-10p) >= 10*1000 avoids 0.1-step
		// floating error at the exact thresholds (n=1000 for p99).
		if n*(1000-int(math.Round(p*10))) >= 10*1000 {
			return p
		}
	}
	return 50
}

// tail returns the p-th percentile of an ascending sample, or of the
// highest percentile the reporting rule allows when the sample is too small
// for p (smoke sizes): a tail is never read off fewer than ten samples.
func tail(s []float64, p float64) float64 {
	return quantile(s, min(p, tailPercentile(len(s)))/100)
}

// spread is the interquartile range of v as a share of its median, with
// the quartiles Python's statistics.quantiles(v, n=4) gives (exclusive
// method), which is what the acceptance driver computes.
func spread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return math.NaN()
	}
	q := func(k float64) float64 { // k-th quartile, exclusive method
		pos := k * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := quantile(s, 0.5)
	if m == 0 {
		return math.NaN()
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// jain is the Jain fairness index of v: 1 when all values are equal.
func jain(v []float64) float64 {
	var sum, sq float64
	for _, x := range v {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(v)) * sq)
}
