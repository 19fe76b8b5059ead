package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of vals by the nearest-rank rule, or 0
// for an empty sample. vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vals) {
		i = len(vals) - 1
	}
	return vals[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// geomean is the geometric mean of positive values; a zero reading is
// floored at one simulated nanosecond so the mean stays defined.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(math.Max(v, 1e-9))
	}
	return math.Exp(s / float64(len(vals)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
