package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Set-up repetitions: at least minSetups, and more while they total under
// setupBudget, up to maxSetups. Cheap set-ups (a process start, a few
// milliseconds) repeat a hundred times or more for a steady median; costly
// ones (a cache warm-up) stop at five.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

// repeatSetup times setup by the rule above and returns the median in
// seconds. teardown (untimed, may be nil) undoes a set-up before the next;
// the last set-up's state is what the run goes on to use.
func repeatSetup(setup, teardown func() error) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if len(times) > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: p90 needs 100 samples, p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples, or an
// error when fewer than minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from bumping an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: fewer than %d beyond it", p, n, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[max(rank, 1)-1], nil
}

// tailPercentile is the highest of p50, p90, p99 and p99.9 that has at
// least minBeyond samples beyond it; ok is false below 20 samples.
func tailPercentile(samples []float64) (p, v float64, ok bool) {
	for _, q := range []float64{99.9, 99, 90, 50} {
		if x, err := percentile(samples, q); err == nil {
			return q, x, true
		}
	}
	return 0, 0, false
}

// median is the middle of samples (the mean of the middle two for an even
// count); 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Block statistics. A run's timed phase is a series of blocks of equal
// work, and each time or rate metric is the quartile of its per-block values
// at the fast end: the first quartile of a time, the third of a rate. A
// shared host's speed swings by tens of percent from one second to the
// next, and that only ever slows a block down, so the faster blocks measure
// the program and the slower ones its neighbours.
const (
	fastTime = 0.25
	fastRate = 0.75
)

// quantile is the q-th quantile of samples (0 <= q <= 1), interpolated
// linearly between the two nearest ranks; 0 for none.
func quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return s[n-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// sum adds samples.
func sum(samples []float64) float64 {
	t := 0.0
	for _, x := range samples {
		t += x
	}
	return t
}

// share is num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
