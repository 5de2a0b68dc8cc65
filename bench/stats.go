package main

import (
	"fmt"
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTailSamples is how many samples must lie beyond a tail percentile
// before it is reported: with fewer, the figure is one or two slow ops
// and does not repeat from run to run.
const minTailSamples = 10

// percentile returns the p-th percentile (0.5 < p < 1, nearest rank)
// and refuses when fewer than minTailSamples samples lie beyond it.
func percentile(v []float64, p float64) (float64, error) {
	if p <= 0.5 || p >= 1 {
		return 0, fmt.Errorf("percentile %.3f: want 0.5 < p < 1 (use median)", p)
	}
	n := len(v)
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples: %d beyond it, need %d", p*100, n, beyond, minTailSamples)
	}
	return sorted(v)[rank-1], nil
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the driver uses to judge run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
