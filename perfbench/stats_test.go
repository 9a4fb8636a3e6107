package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		maxP float64
		want float64
	}{
		{100000, 99, 99}, // 99.9 and 99.5 are above the cap
		{100000, 99.9, 99.9},
		{1000, 99, 99},
		{999, 99, 98},
		{500, 99, 98},
		{499, 99, 95},
		{200, 99, 95},
		{100, 99, 90},
		{40, 99, 75},
		{20, 99, 50},
		{5, 99, 50}, // too few for any tail: the median
	}
	for _, c := range cases {
		got := tailPercentile(c.n, c.maxP)
		if got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.maxP, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - nearestRankIndex(c.n, got) - 1; beyond < minBeyond {
				t.Errorf("n=%d p%g leaves %d samples beyond, want ≥ %d", c.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	got := summarize(xs, 99)
	if got.N != 1000 || got.P50 != 500 || got.Tail != 990 || got.TailAt != 99 {
		t.Fatalf("summarize = %+v, want N=1000 P50=500 Tail=990 at p99", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // only [90,100) is inside root
		{Name: "d", Parent: 1, Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	spans = append(spans, span{Name: "a", Query: 1, Parent: -1, Start: 0, End: 7})
	per := perQuerySelf(spans, selfTimes(spans), "a", "d")
	sort.Float64s(per)
	if len(per) != 2 || per[0] != 0.007 || per[1] != 0.020 {
		t.Errorf("perQuerySelf(a, d) = %v µs, want [0.007 0.020] (query 1, query 0: 14+6)", per)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	m := time.Millisecond
	onTime := openLoopSample{Due: 0, Sent: 0, Done: 5 * m, OK: true}
	// Due at 1ms, but every connection was busy until 5ms: the wait counts.
	stalled := openLoopSample{Due: 1 * m, Sent: 5 * m, Done: 6 * m, OK: true}
	failed := openLoopSample{Due: 2 * m, Sent: 2 * m, Done: 3 * m}
	if got := onTime.latency(); got != 5 {
		t.Errorf("on-time latency = %v, want 5", got)
	}
	if got := stalled.latency(); got != 5 {
		t.Errorf("stalled latency = %v, want 5 (from due, not from send)", got)
	}
	if got := stalled.lag(); got != 4 {
		t.Errorf("stalled lag = %v, want 4", got)
	}
	if got := failed.latency(); !math.IsInf(got, 1) {
		t.Errorf("failed latency = %v, want +Inf", got)
	}
}

func TestBacklogGrowing(t *testing.T) {
	mk := func(lag func(i int) time.Duration) []openLoopSample {
		out := make([]openLoopSample, 400)
		for i := range out {
			due := time.Duration(i) * time.Millisecond
			out[i] = openLoopSample{Due: due, Sent: due + lag(i), Done: due + lag(i) + time.Millisecond, OK: true}
		}
		return out
	}
	flat := mk(func(i int) time.Duration { return time.Millisecond })
	if backlogGrowing(flat, 50) {
		t.Error("a constant lag is not a growing backlog")
	}
	growing := mk(func(i int) time.Duration { return time.Duration(i) * time.Millisecond / 2 })
	if !backlogGrowing(growing, 50) {
		t.Error("a lag rising to 200ms is a growing backlog")
	}
	// A lone stall early in the step does not make the backlog grow.
	blip := mk(func(i int) time.Duration {
		if i < 20 {
			return 40 * time.Millisecond
		}
		return time.Millisecond
	})
	if backlogGrowing(blip, 50) {
		t.Error("an early stall that drains is not a growing backlog")
	}
}

func TestSustainedPicksHighestPassingRate(t *testing.T) {
	step := func(rate, tail float64, growing bool) rateStep {
		return rateStep{Offered: rate, Achieved: rate * 0.99, SearchP: timing{N: 1000, Tail: tail}, Growing: growing}
	}
	steps := []rateStep{step(150, 3, false), step(300, 12, false), step(600, 400, false)}
	if got, ok := sustained(steps, 50); !ok || got.Offered != 300 {
		t.Errorf("sustained = %v %v, want the 300/s step", got.Offered, ok)
	}
	steps[1].Growing = true
	if got, ok := sustained(steps, 50); !ok || got.Offered != 150 {
		t.Errorf("with a growing backlog at 300/s, sustained = %v %v, want 150", got.Offered, ok)
	}
	if _, ok := sustained([]rateStep{step(150, 60, false)}, 50); ok {
		t.Error("no step meets the limit, but sustained reported one")
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if _, v := verdict(base, slower, "lower", &bound); v != "REGRESSION" {
		t.Errorf("20%% slower latency: verdict %q, want REGRESSION", v)
	}
	if _, v := verdict(base, slower, "higher", &bound); v != "better" {
		t.Errorf("20%% more throughput: verdict %q, want better", v)
	}
	if _, v := verdict(base, base, "lower", &bound); v != "same" {
		t.Errorf("identical runs: verdict %q, want same", v)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if _, v := verdict(base, noisy, "lower", &bound); v != "unresolved" {
		t.Errorf("spread beyond the bound: verdict %q, want unresolved", v)
	}
	if _, v := verdict(base, slower, "lower", nil); v != "info" {
		t.Errorf("no bound: verdict %q, want info", v)
	}
	change, _ := verdict(base, slower, "lower", &bound)
	if math.Abs(change-0.2) > 1e-12 {
		t.Errorf("change = %v, want +0.2 of the base median", change)
	}
}
