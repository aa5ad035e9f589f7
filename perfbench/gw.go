package main

// gw.go drives the wall-clock gateway: gateway.New and Server.ServeHTTP,
// in-process, at SpeedFactor 1 (real time).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tanklab/infless/internal/gateway"
	plane "github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
)

const (
	gwFunction = "mnist"
	gwRate     = 5000 // requests per second, open loop
	gwSLO      = 200 * time.Millisecond
	gwMaxBatch = 32
	gwSlots    = 4096
	// Warm-up sends the load in chunks and ends once the function has
	// served and gwQuiet has passed without a launch.
	gwChunk   = 100 * time.Millisecond
	gwQuiet   = 2 * time.Second
	gwMaxWarm = 30 * time.Second
	gwScrape  = time.Second
)

// gwRun is one gateway with its generator, from set-up to close.
type gwRun struct {
	srv   *gateway.Server
	gen   *openLoop
	rng   *rand.Rand
	at    time.Duration // end of the schedule sent so far
	setup time.Duration

	// Body checks, counted on the request goroutines.
	ok200, badBody atomic.Int64
	firstBad       sync.Once
	badExample     atomic.Value
}

func newGwRun(seed int64, pred scheduler.Predictor, obs plane.Observer) (*gwRun, error) {
	t0 := time.Now()
	g := &gwRun{rng: newRand(seed)}
	g.srv = gateway.New(gateway.Config{SpeedFactor: 1, Seed: seed, Predictor: pred, Observer: obs})
	body := fmt.Sprintf(`{"name":%q,"model":"MNIST","slo":%q}`, gwFunction, gwSLO.String())
	req, err := http.NewRequest(http.MethodPost, "/system/functions", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	w := &recorder{hdr: http.Header{}}
	g.srv.ServeHTTP(w, req)
	if w.code != http.StatusCreated {
		g.srv.Close()
		return nil, fmt.Errorf("deploy: status %d: %s", w.code, w.body)
	}
	g.gen = newOpenLoop(g.srv, gwSlots, func() *http.Request {
		r, err := http.NewRequest(http.MethodPost, "/function/"+gwFunction, nil)
		if err != nil {
			panic(err) // a constant URL
		}
		return r
	}, g.checkBody)
	if err := g.warmUp(); err != nil {
		g.close()
		return nil, err
	}
	g.setup = time.Since(t0)
	return g, nil
}

// checkBody validates one response: every 200 body must decode as a
// gateway.InvokeResponse of the deployed function with a batch size in
// [1, gwMaxBatch].
func (g *gwRun) checkBody(code int, body []byte) {
	if code != http.StatusOK {
		return
	}
	g.ok200.Add(1)
	var res gateway.InvokeResponse
	err := json.Unmarshal(body, &res)
	if err == nil && res.Function == gwFunction && res.BatchSize >= 1 && res.BatchSize <= gwMaxBatch {
		return
	}
	g.badBody.Add(1)
	g.firstBad.Do(func() { g.badExample.Store(fmt.Sprintf("%q (%v)", body, err)) })
}

// launches reads the function's launch and served counts from the
// gateway's own telemetry.
func (g *gwRun) launches() (launches int, served uint64) {
	for _, f := range g.srv.Telemetry().Snapshot().Functions {
		if f.Name == gwFunction {
			return f.Launches, f.Served
		}
	}
	return 0, 0
}

func (g *gwRun) warmUp() error {
	lastLaunches, quietSince := -1, time.Duration(0)
	for {
		due := poissonSchedule(g.rng, gwRate, g.at, g.at+gwChunk)
		g.gen.Dispatch(due, make([]outcome, len(due)))
		g.at += gwChunk
		n, served := g.launches()
		if n != lastLaunches {
			lastLaunches, quietSince = n, g.at
		}
		if served > 0 && n > 0 && g.at-quietSince >= gwQuiet {
			return nil
		}
		if g.at >= gwMaxWarm {
			return fmt.Errorf("warm-up: launches still changing after %v (%d launches)", gwMaxWarm, n)
		}
	}
}

func (g *gwRun) close() {
	g.gen.Wait()
	g.srv.Close()
}

// gwWindow is one measured window.
type gwWindow struct {
	out        []outcome
	seconds    float64
	scrapes    []time.Duration
	scrapeErrs int
	served     uint64
	resSeconds float64 // weighted resource-seconds the gateway allocated
	goBefore   goCounters
	goAfter    goCounters
}

// measure sends the load for seconds with one metrics scrape per
// second beside it, then waits for every request.
func (g *gwRun) measure(seconds float64, cpu *cpuWindow) *gwWindow {
	w := &gwWindow{seconds: seconds}
	dur := time.Duration(seconds * float64(time.Second))
	due := poissonSchedule(g.rng, gwRate, g.at, g.at+dur)
	g.at += dur
	w.out = make([]outcome, len(due))
	scrapeReq, err := http.NewRequest(http.MethodGet, "/system/metrics?format=prometheus", nil)
	if err != nil {
		panic(err) // a constant URL
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		tick := time.NewTicker(gwScrape)
		defer tick.Stop()
		rec := &recorder{hdr: http.Header{}}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rec.reset()
				t0 := time.Now()
				g.srv.ServeHTTP(rec, scrapeReq)
				w.scrapes = append(w.scrapes, time.Since(t0))
				if rec.code != http.StatusOK || !bytes.Contains(rec.body, []byte("infless_")) {
					w.scrapeErrs++
				}
			}
		}
	}()

	snap0 := g.srv.Telemetry().SnapshotAt(g.srv.PlaneNow())
	w.goBefore = readGoCounters()
	if cpu != nil {
		cpu.Start()
	}
	g.gen.Dispatch(due, w.out)
	g.gen.Wait()
	if cpu != nil {
		cpu.Stop()
	}
	w.goAfter = readGoCounters()
	snap1 := g.srv.Telemetry().SnapshotAt(g.srv.PlaneNow())
	close(stop)
	scraper.Wait()
	for i, f := range snap1.Functions {
		if f.Name == gwFunction {
			w.served = f.Served - snap0.Functions[i].Served
		}
	}
	w.resSeconds = snap1.Resources.WeightedSeconds - snap0.Resources.WeightedSeconds
	return w
}

// tally classifies the window's responses.
type gwTally struct {
	sent, ok, shed, status5xx, other, inSLO int64
	latMs, lateMs                           []float64
}

func (w *gwWindow) tally() gwTally {
	var t gwTally
	for _, o := range w.out {
		t.sent++
		t.lateMs = append(t.lateMs, float64(o.late)/float64(time.Millisecond))
		switch {
		case o.code == http.StatusOK:
			t.ok++
			t.latMs = append(t.latMs, float64(o.latency)/float64(time.Millisecond))
			if o.latency <= gwSLO {
				t.inSLO++
			}
		case o.code == http.StatusTooManyRequests:
			t.shed++
		case o.code >= 500:
			t.status5xx++
		default:
			t.other++
		}
	}
	return t
}

func (g *gwRun) checks(r *result, w *gwWindow, t gwTally) {
	r.check(t.sent == t.ok+t.shed+t.status5xx+t.other, "sent %d != ok %d + shed %d + failed %d",
		t.sent, t.ok, t.shed, t.status5xx+t.other)
	for _, o := range w.out {
		if o.code == 0 {
			r.check(false, "a request due at %v got no response", o.due)
			break
		}
	}
	if n := g.badBody.Load(); n > 0 {
		r.check(false, "%d of %d 200 bodies are not a valid InvokeResponse, e.g. %v", n, g.ok200.Load(), g.badExample.Load())
	}
	r.check(w.scrapeErrs == 0, "%d metrics scrapes failed", w.scrapeErrs)
}

func runGwOpen(rc runConfig) (*result, error) {
	r := newResult()
	g, err := newGwRun(rc.seed, nil, nil)
	if err != nil {
		return nil, err
	}
	cpu := newCPUWindow(processCPU)
	w := g.measure(rc.seconds, cpu)
	g.close()
	t := w.tally()
	g.checks(r, w, t)
	lat := summarize(t.latMs)
	fmt.Printf("gw: sent=%d ok=%d shed=%d failed=%d; latency ms %s; setup %v\n",
		t.sent, t.ok, t.shed, t.status5xx+t.other, lat, g.setup.Round(time.Millisecond))
	r.attempted, r.failed = t.sent, t.sent-t.ok
	r.e2e.set("setup_s", g.setup.Seconds(), "s")
	r.e2e.set("ops_per_s", float64(t.inSLO)/w.seconds, "1/s")
	r.e2e.set("cpu_us_per_op", cpu.PerOp(t.sent), "us")
	r.e2e.set("lat_p50_ms", lat.P50, "ms")
	r.layers.set("lat_p99_ms", orZero(lat.P99), "ms")
	r.e2e.set("thru_per_resource", ratio(float64(w.served), w.resSeconds), "req/res-s")
	mem, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.e2e.set("mem_peak_mb", mem, "MB")

	l := r.layers
	l.set("error_rate", ratio(float64(t.sent-t.ok), float64(t.sent)), "ratio")
	l.set("slo_violation_rate", ratio(float64(t.sent-t.inSLO), float64(t.sent)), "ratio")
	goDelta(l, w.goBefore, w.goAfter, t.sent)
	if !rc.traced {
		return r, nil
	}

	preds := newTracedPredictors()
	obs := newLayerObserver()
	tg, err := newGwRun(rc.seed, preds.outer, obs)
	if err != nil {
		return nil, err
	}
	tcpu := newCPUWindow(processCPU)
	tw := tg.measure(rc.seconds/2, tcpu)
	tg.close()
	tt := tw.tally()
	tg.checks(r, tw, tt)
	r.attempted += tt.sent
	r.failed += tt.sent - tt.ok
	obs.report(l)
	preds.report(l)
	l.set("gateway.shed", float64(obs.shed), "count")
	l.set("gateway.status_5xx", float64(tt.status5xx), "count")
	var scrape time.Duration
	for _, d := range tw.scrapes {
		scrape += d
	}
	l.set("telemetry.scrape_ms", ratio(float64(scrape)/float64(time.Millisecond), float64(len(tw.scrapes))), "ms")
	late := summarize(tt.lateMs)
	l.set("gen.late_p99_ms", orZero(late.P99), "ms")
	l.set("gen.late_max_ms", slices.Max(tt.lateMs), "ms")
	l.set("trace_overhead_pct", (tcpu.PerOp(tt.sent)/cpu.PerOp(t.sent)-1)*100, "%")
	return r, nil
}
