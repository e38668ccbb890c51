package main

import (
	"math"
	"sort"
	"time"
)

// Sample is an exact latency sample: every observation is kept, and a
// percentile is read from the fully sorted sample by the nearest-rank
// rule, so a reported percentile is always one of the observed values
// and can never exceed the maximum.
type Sample struct {
	v      []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

// AddDuration records d in milliseconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(float64(d) / float64(time.Millisecond)) }

// Merge appends every observation of o.
func (s *Sample) Merge(o *Sample) {
	s.v = append(s.v, o.v...)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.v) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1): the
// smallest observation with at least q·n observations at or below it.
// It returns NaN for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	s.sort()
	rank := int(math.Ceil(q * float64(len(s.v))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.v) {
		rank = len(s.v)
	}
	return s.v[rank-1]
}

// Max returns the largest observation (NaN when empty).
func (s *Sample) Max() float64 {
	if len(s.v) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.v[len(s.v)-1]
}

// Sum returns the total of the observations.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t
}

// median returns the median of xs (mean of the middle pair for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
