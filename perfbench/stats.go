package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail timing may be reported at, highest
// first. A sample set reports the highest one that still leaves at least
// minBeyond samples above it.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile in tailLadder, no higher than
// maxP, that leaves at least minBeyond of n samples beyond it, or 50 when n is
// too small for any (the median is then the only honest summary).
func tailPercentile(n int, maxP float64) float64 {
	for _, p := range tailLadder {
		if p > maxP {
			continue
		}
		if n-nearestRankIndex(n, p)-1 >= minBeyond {
			return p
		}
	}
	return 50
}

// nearestRankIndex is the 0-based index of the nearest-rank p-th percentile
// in n sorted samples: the smallest rank with at least p% of the samples at
// or below it.
func nearestRankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRankIndex(len(sorted), p)]
}

// timing summarizes one latency sample set: its median, its tail at the
// percentile tailPercentile allows, and the sample count.
type timing struct {
	N      int
	P50    float64
	Tail   float64
	TailAt float64 // the percentile Tail was taken at
}

// summarize sorts xs in place and returns its timing summary, with the tail
// capped at maxP.
func summarize(xs []float64, maxP float64) timing {
	sort.Float64s(xs)
	if len(xs) == 0 {
		return timing{}
	}
	at := tailPercentile(len(xs), maxP)
	return timing{N: len(xs), P50: percentile(xs, 50), Tail: percentile(xs, at), TailAt: at}
}

// median returns the median of xs (the mean of the middle pair for even
// counts) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so spreads
// computed here match the ones the acceptance check computes. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// openLoopSample is one open-loop request: when it was due, when the
// generator actually sent it, and when it completed. ok is false for a
// failed or refused request.
type openLoopSample struct {
	Due, Sent, Done time.Duration // offsets from the step start
	OK              bool
}

// latency is the request's latency measured from its due time, so a stall
// charges its wait to every request queued behind it. A failed request
// counts as infinitely slow: it misses any latency limit.
func (s openLoopSample) latency() float64 {
	if !s.OK {
		return math.Inf(1)
	}
	return ms(s.Done - s.Due)
}

// lag is how late the generator sent the request.
func (s openLoopSample) lag() float64 { return ms(s.Sent - s.Due) }

// backlogGrowing reports whether the generator fell progressively behind
// during a step: the median send lag over the last quarter of the step's
// requests (in due order) exceeds that of the first quarter by more than
// half the latency limit. A system that keeps up shows a flat lag; one that
// cannot keep up accumulates a queue whose wait grows with time.
func backlogGrowing(samples []openLoopSample, limitMs float64) bool {
	if len(samples) < 8 {
		return false
	}
	s := append([]openLoopSample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].Due < s[j].Due })
	q := len(s) / 4
	lags := func(part []openLoopSample) float64 {
		xs := make([]float64, len(part))
		for i, x := range part {
			xs[i] = x.lag()
		}
		return median(xs)
	}
	return lags(s[len(s)-q:])-lags(s[:q]) > limitMs/2
}

// rateStep is the outcome of one fixed offered rate of the open loop.
type rateStep struct {
	Offered  float64 // requests per second the schedule offered
	Achieved float64 // requests completed per second of the step
	SearchP  timing  // search latency from due time, in ms
	Growing  bool    // backlogGrowing held for the step
}

// sustained returns the step with the highest offered rate whose search tail
// latency meets limitMs without a growing backlog, and whether any did.
func sustained(steps []rateStep, limitMs float64) (rateStep, bool) {
	best, ok := rateStep{}, false
	for _, st := range steps {
		if st.SearchP.N == 0 || st.SearchP.Tail > limitMs || st.Growing {
			continue
		}
		if !ok || st.Offered > best.Offered {
			best, ok = st, true
		}
	}
	return best, ok
}
