package main

import (
	"math"
	"sort"
)

// minBeyondTail is the number of samples that must lie beyond the
// reported tail percentile: a tail read off fewer samples is noise.
const minBeyondTail = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankIndex is the nearest-rank index of percentile p (0 < p ≤ 100)
// in n sorted samples.
func rankIndex(p, n int) int {
	i := int(math.Ceil(float64(p)*float64(n)/100)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tail reports the highest whole percentile of xs that has at least
// minBeyondTail samples above its nearest-rank position, its value and
// the number of samples beyond it. With too few samples for any
// percentile to qualify it falls back to the median (p = 50) and
// reports how many samples lie beyond that.
func tail(xs []float64) (p int, value float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 50, 0, 0
	}
	for p = 99; p > 50; p-- {
		i := rankIndex(p, n)
		if n-1-i >= minBeyondTail {
			return p, s[i], n - 1 - i
		}
	}
	i := rankIndex(50, n)
	return 50, s[i], n - 1 - i
}
