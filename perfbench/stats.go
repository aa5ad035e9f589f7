package main

// stats.go holds the benchmark's own statistics: the percentile rule,
// CPU accounting over a measured window, the process memory peak and
// the Go runtime counters read around a run.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted samples by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(q, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// nearestRank is ceil(q·n), forgiving the float error in products like
// 0.9999·100000 that should be whole.
func nearestRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailQuantiles are the percentiles the rule chooses from, highest first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailRule returns the highest percentile in tailQuantiles that has at
// least minBeyond samples above it, or ok=false when even the lowest
// has fewer (fewer than 100 samples).
func tailRule(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if beyond := n - nearestRank(q, n); beyond >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// summary is a latency sample set reduced by the percentile rule: the
// median, the p99 when the sample supports it, and the highest
// supported percentile, with the sample count they rest on.
type summary struct {
	N     int
	P50   float64
	P99   float64 // NaN when fewer than minBeyond samples lie above p99
	TailQ float64 // highest supported percentile; 0 when none is
	Tail  float64
}

// summarize sorts xs in place and applies the percentile rule.
func summarize(xs []float64) summary {
	slices.Sort(xs)
	s := summary{N: len(xs), P50: quantile(xs, 0.5), P99: math.NaN()}
	if q, ok := tailRule(len(xs)); ok {
		s.TailQ, s.Tail = q, quantile(xs, q)
		if q >= 0.99 {
			s.P99 = quantile(xs, 0.99)
		}
	}
	return s
}

// upTo99 is the p99 when the sample supports it, else the highest
// percentile it does support (the printed summary names which), else 0.
func (s summary) upTo99() float64 {
	if !math.IsNaN(s.P99) {
		return s.P99
	}
	return s.Tail
}

// String states the sample count with the percentiles it supports.
func (s summary) String() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("n=%d p50=%.4g (too few samples for a tail percentile)", s.N, s.P50)
	}
	return fmt.Sprintf("n=%d p50=%.4g p%g=%.4g", s.N, s.P50, s.TailQ*100, s.Tail)
}

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuWindow accounts the CPU a measured window spends: only the delta
// between start and stop counts, so set-up and warm-up CPU before the
// window and check work after it are excluded.
type cpuWindow struct {
	read  func() time.Duration
	start time.Duration
	used  time.Duration
}

func newCPUWindow(read func() time.Duration) *cpuWindow { return &cpuWindow{read: read} }

func (w *cpuWindow) Start() { w.start = w.read() }

func (w *cpuWindow) Stop() { w.used += w.read() - w.start }

// PerOp returns the window's CPU in microseconds per operation.
func (w *cpuWindow) PerOp(ops int64) float64 {
	if ops <= 0 {
		return math.NaN()
	}
	return float64(w.used) / float64(time.Microsecond) / float64(ops)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// goCounters are the Go runtime's cumulative allocation and GC counters.
type goCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pause      time.Duration
}

func readGoCounters() goCounters {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return goCounters{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// goDelta puts the runtime counters' growth over a window into layer
// metrics, allocation per operation of the window.
func goDelta(m metricSet, before, after goCounters, ops int64) {
	perOp := 0.0
	if ops > 0 {
		perOp = float64(after.allocBytes-before.allocBytes) / float64(ops)
	}
	m.set("go.alloc_bytes_per_op", perOp, "B")
	m.set("go.gc_cycles", float64(after.gcCycles-before.gcCycles), "count")
	m.set("go.gc_pause_ms", float64(after.pause-before.pause)/float64(time.Millisecond), "ms")
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the run bypassed).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// orZero maps the NaN of an empty or too-small sample to 0, the value a
// bypassed layer reports.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
