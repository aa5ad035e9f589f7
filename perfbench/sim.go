package main

// sim.go drives the discrete-event simulator: sim.New and Engine.Run
// with the INFless controller from core.New.

import (
	"fmt"
	goruntime "runtime"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	plane "github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

// simWorkload is one simulator input set.
type simWorkload struct {
	duration time.Duration // simulated time of one repetition
	warmup   time.Duration // sim.Config.Warmup
	storage  string        // artifact.Profile name
	cluster  func() *cluster.Cluster
	// functions declares the deployed functions; their traces are built
	// inside the timed set-up.
	functions func(seed int64, dur time.Duration) []simFunction
}

type simFunction struct {
	name  string
	model *model.Model
	slo   time.Duration
	trace func() (*workload.Trace, error)
}

// simSteady: the OSVT application at a constant 15,000 rps per function
// on the 8-server testbed, below the ~20k rps knee, storage off. Full
// batches, so the per-request layers (arrival stream, event queue,
// routing) do almost all the work.
var simSteady = simWorkload{
	duration: 15 * time.Second,
	warmup:   5 * time.Second,
	storage:  "off",
	cluster:  cluster.Testbed,
	functions: func(_ int64, dur time.Duration) []simFunction {
		osvt := []struct{ name, model string }{
			{"osvt-detect", "SSD"}, {"osvt-license", "MobileNet"}, {"osvt-classify", "ResNet-50"},
		}
		out := make([]simFunction, len(osvt))
		for i, f := range osvt {
			out[i] = simFunction{name: f.name, model: model.MustGet(f.model), slo: 200 * time.Millisecond,
				trace: func() (*workload.Trace, error) { return workload.Constant(15000, dur, time.Minute), nil }}
		}
		return out
	},
}

// simChurn: 40 functions over the Table 1 zoo with tight SLOs and bursty
// 20 rps traces on 64 servers in 4 shards, storage "preload". Batches of
// about one, constant launches and reclaims, tiered cold starts, LSTH
// windows and a scheduling tick per function per second.
//
// The rate curves are fixed; the seed picks the arrival and execution
// noise the engine draws over them. Seeded curves would move the model
// mix between runs, and with it every figure, by more than the
// benchmark's bounds.
var simChurn = simWorkload{
	duration: 15 * time.Minute,
	storage:  "preload",
	cluster:  func() *cluster.Cluster { return cluster.New(cluster.Options{Servers: 64, Shards: 4}) },
	functions: func(_ int64, _ time.Duration) []simFunction {
		zoo := model.Table1()
		out := make([]simFunction, 40)
		for i := range out {
			m := zoo[i%len(zoo)]
			traceSeed := int64(i + 1)
			out[i] = simFunction{name: fmt.Sprintf("f%02d-%s", i, m.Name), model: m,
				slo: 3*m.MinExecTime(1) + 50*time.Millisecond,
				trace: func() (*workload.Trace, error) {
					return workload.ByName("bursty", workload.Options{Seed: traceSeed, Days: 1, BaseRPS: 20})
				}}
		}
		return out
	},
}

func runSimSteady(rc runConfig) (*result, error) { return simSteady.run(rc) }
func runSimChurn(rc runConfig) (*result, error)  { return simChurn.run(rc) }

// simOutputs are a run's deterministic outputs: they must repeat exactly
// between repetitions of one seed and between untraced and traced runs.
type simOutputs struct {
	arrived, served, dropped uint64
	thruPerResource          float64
	violationRate            float64
	coldStartRate            float64
	p50Ms, p99Ms             float64
}

// simTracer is the instrumentation of one traced repetition.
type simTracer struct {
	spans *spanClock
	ctrl  *tracedController
	preds *tracedPredictors
	lsth  []*tracedLSTH
	obs   *layerObserver
}

// latencyObserver keeps the exact model-time latency of every request
// served after the warm-up, the samples the end-to-end percentiles are
// taken from (the engine's own recorders keep bucketed histograms).
type latencyObserver struct {
	plane.NopObserver
	warmup time.Duration
	ms     []float64
}

func (o *latencyObserver) RequestServed(_ string, s metrics.Sample, now time.Duration) {
	if now >= o.warmup {
		o.ms = append(o.ms, float64(s.Total())/float64(time.Millisecond))
	}
}

// simRep is one repetition: set-up, then Engine.Run.
type simRep struct {
	out                  simOutputs
	setup, traces, clNew time.Duration
	run                  time.Duration
	fns                  []simFunction
	traceList            []*workload.Trace
}

func (w simWorkload) setupAndRun(seed int64, lat *latencyObserver, tr *simTracer, cpu *cpuWindow, goAcc *goCounters) (*simRep, error) {
	rep := &simRep{}
	t0 := time.Now()
	rep.fns = w.functions(seed, w.duration)
	for _, f := range rep.fns {
		t, err := f.trace()
		if err != nil {
			return nil, err
		}
		rep.traceList = append(rep.traceList, t)
	}
	rep.traces = time.Since(t0)
	t1 := time.Now()
	cl := w.cluster()
	rep.clNew = time.Since(t1)
	st, err := artifact.Profile(w.storage)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{Cluster: cl, Seed: seed, Duration: w.duration, Warmup: w.warmup}
	if st.Enabled {
		cfg.Storage = &st
	}
	var ctrl sim.Controller
	if tr == nil {
		ctrl = core.New(core.Options{})
	} else {
		tr.ctrl = newTracedController(core.New(core.Options{Predictor: tr.preds.outer}), tr.spans)
		ctrl = tr.ctrl
	}
	e := sim.New(ctrl, cfg)
	for i, f := range rep.fns {
		spec := sim.FunctionSpec{Name: f.name, Model: f.model, SLO: f.slo, Trace: rep.traceList[i]}
		if tr != nil {
			// The same LSTH core.Init would assign, wrapped.
			p := &tracedLSTH{LSTH: coldstart.NewLSTH(coldstart.LSTHOptions{}), spans: tr.spans}
			tr.lsth = append(tr.lsth, p)
			spec.Policy = p
		}
		e.AddFunction(spec)
	}
	if tr != nil {
		byName := map[string]*sim.FunctionState{}
		for _, f := range e.Functions() {
			byName[f.Spec.Name] = f
		}
		tr.obs.batchShape = func(fn string, instance, size int) (execKey, bool) {
			f := byName[fn]
			cand, ok := tr.ctrl.candidate(f, instance)
			return execKey{m: f.Spec.Model, b: size, res: cand.Res}, ok
		}
		e.Observe(tr.obs)
	}
	if lat != nil {
		lat.warmup, lat.ms = w.warmup, lat.ms[:0]
		e.Observe(lat)
	}
	rep.setup = time.Since(t0)

	before := readGoCounters()
	if cpu != nil {
		cpu.Start()
	}
	t2 := time.Now()
	res := e.Run()
	rep.run = time.Since(t2)
	if cpu != nil {
		cpu.Stop()
	}
	if goAcc != nil {
		after := readGoCounters()
		goAcc.allocBytes += after.allocBytes - before.allocBytes
		goAcc.gcCycles += after.gcCycles - before.gcCycles
		goAcc.pause += after.pause - before.pause
	}
	rep.out = outputsOf(res)
	return rep, nil
}

func outputsOf(res *sim.Result) simOutputs {
	all := metrics.NewLatencyRecorder(0)
	var o simOutputs
	for _, f := range res.Functions {
		all.Merge(f.Recorder)
	}
	for _, f := range res.Telemetry.Functions {
		o.arrived += f.Arrived
	}
	o.served, o.dropped = res.Served(), res.Dropped()
	o.thruPerResource = res.ThroughputPerResource()
	o.violationRate = res.ViolationRate()
	o.coldStartRate = all.ColdRate()
	o.p50Ms = float64(all.Percentile(0.5)) / float64(time.Millisecond)
	o.p99Ms = float64(all.Percentile(0.99)) / float64(time.Millisecond)
	return o
}

func (w simWorkload) run(rc runConfig) (*result, error) {
	r := newResult()
	cpu := newCPUWindow(processCPU)
	var goAcc goCounters
	var setups, rates, walls []float64
	var first simOutputs
	var lat summary
	var ops int64
	obs := &latencyObserver{}
	start := time.Now()
	// At least two repetitions, so determinism is always checked. Each
	// starts from a collected heap, so none pays for its predecessor's
	// garbage.
	for i := 0; i < 2 || time.Since(start).Seconds() < rc.seconds; i++ {
		goruntime.GC()
		rep, err := w.setupAndRun(rc.seed, obs, nil, cpu, &goAcc)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = rep.out
			lat = summarize(obs.ms)
		} else {
			r.check(rep.out == first, "repetition %d outputs %+v differ from repetition 0 %+v", i, rep.out, first)
		}
		setups = append(setups, rep.setup.Seconds())
		walls = append(walls, rep.run.Seconds())
		rates = append(rates, float64(rep.out.arrived)/rep.run.Seconds())
		ops += int64(rep.out.arrived)
	}
	r.attempted = ops
	fmt.Printf("sim: %d repetitions of %v simulated; served=%d dropped=%d arrived=%d per repetition; simulated requests per wall second %.0f\n",
		len(walls), w.duration, first.served, first.dropped, first.arrived, rates)
	r.check(first.served > 0, "no request served")

	r.e2e.set("setup_s", median(setups), "s")
	r.e2e.set("ops_per_s", median(rates), "1/s")
	r.e2e.set("cpu_us_per_op", cpu.PerOp(ops), "us")
	fmt.Printf("sim: model-time latency ms %s\n", lat)
	r.e2e.set("lat_p50_ms", lat.P50, "ms")
	r.layers.set("lat_p99_ms", orZero(lat.P99), "ms")
	r.e2e.set("thru_per_resource", first.thruPerResource, "req/res-s")
	mem, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.e2e.set("mem_peak_mb", mem, "MB")

	l := r.layers
	l.set("error_rate", ratio(float64(first.dropped), float64(first.arrived)), "ratio")
	l.set("slo_violation_rate", first.violationRate, "ratio")
	l.set("cold_start_rate", first.coldStartRate, "ratio")
	goDelta(l, goCounters{}, goAcc, ops)
	if !rc.traced {
		return r, nil
	}

	tr := &simTracer{spans: &spanClock{}, preds: newTracedPredictors(), obs: newLayerObserver()}
	goruntime.GC()
	rep, err := w.setupAndRun(rc.seed, nil, tr, nil, nil)
	if err != nil {
		return nil, err
	}
	r.attempted += int64(rep.out.arrived)
	r.check(rep.out == first, "traced outputs %+v differ from untraced %+v", rep.out, first)
	w.reportLayers(l, rc.seed, rep, tr)
	r.check(uint64(tr.obs.arrivals) == first.arrived, "observer saw %d arrivals, telemetry %d", tr.obs.arrivals, first.arrived)
	r.check(uint64(l["workload.arrivals"].Value) == first.arrived,
		"stream replay drew %v arrivals, the engine %d", l["workload.arrivals"].Value, first.arrived)
	r.check(tr.obs.unresolved == 0, "%d submitted batches on instances Route never returned", tr.obs.unresolved)
	l.set("trace_overhead_pct", (rep.run.Seconds()/median(walls)-1)*100, "%")
	return r, nil
}

// reportLayers derives the per-layer metrics of a traced repetition.
func (w simWorkload) reportLayers(l metricSet, seed int64, rep *simRep, tr *simTracer) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	l.set("workload.trace_build_ms", ms(rep.traces), "ms")
	l.set("cluster.new_ms", ms(rep.clNew), "ms")
	l.set("sim.run_self_ms", ms(rep.run-tr.spans.covered), "ms")

	c := tr.ctrl
	l.set("core.init_ms", ms(c.init), "ms")
	l.set("core.route_calls", float64(c.routeCalls), "count")
	l.set("core.route_ns", ratio(float64(c.route), float64(c.routeCalls)), "ns")
	l.set("core.route_nil_ratio", ratio(float64(c.routeNil), float64(c.routeCalls)), "ratio")
	l.set("core.tick_calls", float64(c.tickCalls), "count")
	l.set("core.tick_us", ratio(float64(c.tick)/float64(time.Microsecond), float64(c.tickCalls)), "us")
	tr.preds.report(l)

	var windows time.Duration
	var windowsCalls, idleCalls int64
	for _, p := range tr.lsth {
		windows += p.windows
		windowsCalls += p.windowsCalls
		idleCalls += p.recordIdleCalls
	}
	l.set("coldstart.windows_calls", float64(windowsCalls), "count")
	l.set("coldstart.windows_ns", ratio(float64(windows), float64(windowsCalls)), "ns")
	l.set("coldstart.record_idle_calls", float64(idleCalls), "count")

	tr.obs.report(l)
	tr.obs.replayExec(l, seed)
	replayStreams(l, seed, w.duration, rep)
}

// replayStreams times the arrival streams the engine drew from, with the
// engine's own per-function seeds, after Engine.Run has returned.
func replayStreams(l metricSet, seed int64, dur time.Duration, rep *simRep) {
	var arrivals int64
	t0 := time.Now()
	for i, f := range rep.fns {
		s := workload.NewStream(rep.traceList[i], dur, newRand(seed+int64(len(f.name))))
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			arrivals++
		}
	}
	elapsed := time.Since(t0)
	l.set("workload.arrivals", float64(arrivals), "count")
	l.set("workload.stream_ns_per_arrival", ratio(float64(elapsed), float64(arrivals)), "ns")
}
