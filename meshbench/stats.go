package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread the benchmark prints matches the one used to
// judge it. With fewer than two samples every cut point is the sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// sorted samples. The epsilon keeps p*n/100 from rounding up past an exact
// integer (99.9% of 10000 must rank 9990, not 9991).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// tailLevels are the percentiles tailPercentile may report, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for timings: report the
// highest percentile that has at least ten samples beyond it. ok is false
// when even the median has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, lvl := range tailLevels {
		if len(xs)-rank(len(xs), lvl) >= 10 {
			return lvl, percentile(xs, lvl), true
		}
	}
	return 0, 0, false
}

// describe summarizes a sample of timings for a human: count, median,
// quartile spread and the tail percentile the reporting rule allows.
func describe(xs []float64, unit string) string {
	s := fmt.Sprintf("n=%d median=%.4g%s spread=%.3f", len(xs), median(xs), unit, spread(xs))
	if p, v, ok := tailPercentile(xs); ok {
		s += fmt.Sprintf(" p%g=%.4g%s", p, v, unit)
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler tracks the peak of the live heap while a timed window runs,
// sampling runtime/metrics every few milliseconds from its own goroutine.
// take returns the peak since the previous take, so a run can report the
// median of its per-unit peaks rather than one extreme.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapSampleEvery = 5 * time.Millisecond

// startHeapSampler starts sampling; stop ends it.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.observe()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery) //meshvet:wallclock sampling cadence of a measurement, off every result path
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

// observe folds the current live-heap size into the running peak.
func (h *heapSampler) observe() {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	v := sample[0].Value.Uint64()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// takeMiB returns the peak since the previous take in MiB and restarts
// the tracking from the current heap size.
func (h *heapSampler) takeMiB() float64 {
	h.observe()
	p := h.peak.Swap(0)
	h.observe()
	return float64(p) / (1 << 20)
}

// stop ends sampling and waits for the sampling goroutine.
func (h *heapSampler) stopSampling() {
	close(h.stop)
	<-h.done
}
