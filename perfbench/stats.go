package main

import (
	"math"
	"sort"
	"time"
)

// Samples is a set of measurements in one unit. Every quantile the
// benchmark reports comes from here, together with the sample count, so
// a p99 over twelve samples is never mistaken for a p99 over ten
// thousand.
type Samples struct {
	xs     []float64
	sorted bool
}

// Add appends one measurement.
func (s *Samples) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration appends d in milliseconds.
func (s *Samples) AddDuration(d time.Duration) { s.Add(float64(d) / float64(time.Millisecond)) }

// N is the sample count.
func (s *Samples) N() int { return len(s.xs) }

// Sum is the total of all samples.
func (s *Samples) Sum() float64 {
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks, the definition numpy and most load generators
// use: rank h = q·(n−1), value x[⌊h⌋] + (h−⌊h⌋)·(x[⌊h⌋+1] − x[⌊h⌋]).
// It is exact at the sample points (q=0 is the minimum, q=1 the
// maximum) and 0 for no samples.
func (s *Samples) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	q = math.Max(0, math.Min(1, q))
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return s.xs[n-1]
	}
	return s.xs[lo] + (h-float64(lo))*(s.xs[lo+1]-s.xs[lo])
}

// Tail returns the highest whole percentile that still has at least
// beyond samples above it — the furthest tail this many samples can
// support — as a fraction q with its value. With beyond or fewer
// samples there is no such percentile and q is 0.
func (s *Samples) Tail(beyond int) (q, v float64) {
	n := len(s.xs)
	if n <= beyond {
		return 0, 0
	}
	q = math.Floor(100*(1-float64(beyond)/float64(n))) / 100
	return q, s.Quantile(q)
}

// Median is Quantile(0.5).
func (s *Samples) Median() float64 { return s.Quantile(0.5) }

// Layer is one node of a layer-time tree: Total is the time the layer
// took including its children, so its self time is Total minus the
// children's totals.
type Layer struct {
	Name     string
	Total    time.Duration
	Children []Layer
}

// SelfTimes returns every layer's self time, keyed by name. A child
// measured by a different clock can exceed its parent's total; the
// parent's self time is then clamped to 0 rather than going negative,
// so the self times never sum to more than the measured totals.
func SelfTimes(layers []Layer) map[string]time.Duration {
	out := make(map[string]time.Duration)
	var walk func(l Layer)
	walk = func(l Layer) {
		self := l.Total
		for _, c := range l.Children {
			self -= c.Total
			walk(c)
		}
		if self < 0 {
			self = 0
		}
		out[l.Name] += self
	}
	for _, l := range layers {
		walk(l)
	}
	return out
}

// SelfSumFrac is the sum of all layer self times divided by the time
// available to them: wall time × parallelism (the number of scenarios
// the scheduler runs at once). It cannot exceed 1 unless a layer is
// double-counted, which is what the harness checks it for.
func SelfSumFrac(layers []Layer, wall time.Duration, parallelism int) float64 {
	if wall <= 0 || parallelism < 1 {
		return 0
	}
	var sum time.Duration
	for _, d := range SelfTimes(layers) {
		sum += d
	}
	return float64(sum) / (float64(wall) * float64(parallelism))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
