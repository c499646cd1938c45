package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here match those computed from the same values in
// Python. It needs at least two values; with fewer both are the single
// value (or NaN).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise measure every bound is compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// tail returns the sample at the highest rank no higher than the target
// quantile that still leaves at least ten samples above it, and the
// quantile that rank represents. A tail percentile backed by fewer than
// ten samples is noise, so with too few samples for the target the
// reported quantile drops, never below the median. Ranks are
// nearest-rank (1-based rank ceil(q·n)). xs must be sorted.
func tail(sorted []float64, target float64) (v, q float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	r := int(math.Ceil(target*float64(n) - 1e-9))
	if r > n-10 {
		r = n - 10
	}
	if m := (n + 1) / 2; r < m {
		r = m
	}
	return sorted[r-1], float64(r) / float64(n)
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean returns the geometric mean of xs (all must be positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Verdicts of a comparison between a parent and a change.
const (
	verdictImproved   = "improved"
	verdictNoChange   = "no change"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is the outcome of comparing one metric's parent runs (a)
// with the change's runs (b).
type comparison struct {
	Wins, Losses, Pairs int
	MedA, MedB          float64
	SpreadA             float64 // IQR/median of the parent's runs
	Verdict             string
}

// compareRuns applies the rule for claiming a gain or a regression
// between two sets of runs of one metric. Pairs are (a[i], b[i]); the
// change wins a pair when its value is better, ties counting for
// neither side. The change improved when it wins at least nine tenths
// of the pairs and the medians differ, in its favour, by more than the
// parent's interquartile distance. It is worse when its median is worse
// than the parent's by more than bound (a share of the parent's
// median). Otherwise it is unchanged — unless the parent's own spread is
// wider than the bound, in which case "no change" cannot be told from
// noise and the verdict is unresolved, except when every run of the
// change reads better than every run of the parent.
func compareRuns(a, b []float64, higherBetter bool, bound float64) comparison {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	c := comparison{MedA: median(a), MedB: median(b), SpreadA: spread(a)}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c.Pairs = n
	for i := 0; i < n; i++ {
		switch {
		case better(b[i], a[i]):
			c.Wins++
		case better(a[i], b[i]):
			c.Losses++
		}
	}
	q1, q3 := quartiles(a)
	iqr := math.Abs(q3 - q1)
	diff := c.MedB - c.MedA
	if !higherBetter {
		diff = -diff
	}
	worseBy := -diff / math.Abs(c.MedA)
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case n > 0 && float64(c.Wins) >= 0.9*float64(n) && diff > iqr:
		c.Verdict = verdictImproved
	case worseBy > bound:
		c.Verdict = verdictWorse
	case c.SpreadA > bound && !allBetter:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictNoChange
	}
	return c
}
