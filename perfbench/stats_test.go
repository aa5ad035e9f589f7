package main

import (
	"math"
	"testing"
	"time"
)

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},
		{100, 0.9, true},   // 10 above p90
		{199, 0.9, true},   // 19 above p90, 9 above p95
		{200, 0.95, true},  // 10 above p95
		{999, 0.95, true},  // 9 above p99
		{1000, 0.99, true}, // 10 above p99
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
		{5000000, 0.9999, true},
	}
	for _, c := range cases {
		q, ok := tailRule(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailRule(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - nearestRank(q, c.n); beyond < minBeyond {
				t.Errorf("tailRule(%d) = p%v leaves only %d samples beyond", c.n, q*100, beyond)
			}
		}
	}
}

func TestSummarizeReportsP99OnlyWhenSupported(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.TailQ != 0.99 || s.Tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	small := summarize([]float64{3, 1, 2, 5, 4})
	if small.P50 != 3 || !math.IsNaN(small.P99) || small.TailQ != 0 {
		t.Fatalf("summarize of 5 samples = %+v; want p50 3 and no tail", small)
	}
	if got := summarize(make([]float64, 999)); !math.IsNaN(got.P99) || got.TailQ != 0.95 {
		t.Fatalf("999 samples: %+v; want no p99, tail p95", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for q, want := range map[float64]float64{0: 10, 0.25: 10, 0.5: 20, 0.51: 30, 1: 40} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// fakeCPU is a CPU clock the test advances by hand.
type fakeCPU struct{ now time.Duration }

func (c *fakeCPU) read() time.Duration { return c.now }

func TestCPUWindowCountsOnlyTheMeasuredWindow(t *testing.T) {
	clock := &fakeCPU{}
	w := newCPUWindow(clock.read)
	clock.now = 5 * time.Second // set-up and warm-up: not counted
	w.Start()
	clock.now += 300 * time.Millisecond
	w.Stop()
	clock.now += 2 * time.Second // checks between windows: not counted
	w.Start()
	clock.now += 100 * time.Millisecond
	w.Stop()
	clock.now += time.Second // after the window: not counted
	if w.used != 400*time.Millisecond {
		t.Fatalf("used = %v, want 400ms", w.used)
	}
	if got := w.PerOp(1000); got != 400 {
		t.Fatalf("PerOp(1000) = %v µs, want 400", got)
	}
	if !math.IsNaN(w.PerOp(0)) {
		t.Fatal("PerOp(0) should be NaN")
	}
}

func TestProcessCPUAdvancesWithWork(t *testing.T) {
	w := newCPUWindow(processCPU)
	w.Start()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	w.Stop()
	if w.used < 20*time.Millisecond || w.used > 2*time.Second {
		t.Fatalf("50ms of spinning used %v of CPU (x=%d)", w.used, x)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestPeakRSS(t *testing.T) {
	mb, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if mb <= 0 {
		t.Fatalf("peak RSS %v MB", mb)
	}
}
