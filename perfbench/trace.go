package main

// trace.go holds the traced run's instruments. They wrap the public
// interfaces the program's entry points accept — sim.Controller,
// scheduler.Predictor, coldstart.Policy and runtime.Observer — and time
// the calls the program makes into each layer, without changing program
// code. Each wrapper must be transparent: a traced run reproduces the
// untraced run's deterministic outputs exactly (checked on every traced
// run, and by trace_test.go).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	plane "github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/sim"
)

// spanClock tracks the traced spans of the simulator's single event
// loop. Only outermost spans add to covered, so a span nested in
// another (LSTH Windows inside a Tick that reclaims) is not subtracted
// twice from Engine.Run's self time.
type spanClock struct {
	depth   int
	covered time.Duration
}

func (s *spanClock) enter() time.Time {
	s.depth++
	return time.Now()
}

func (s *spanClock) exit(t0 time.Time) time.Duration {
	d := time.Since(t0)
	s.depth--
	if s.depth == 0 {
		s.covered += d
	}
	return d
}

// tracedController wraps the INFless controller. It embeds the concrete
// *core.Controller so the optional sim.Admitter method stays promoted:
// a wrapper holding a plain sim.Controller would hide it and silently
// turn SLO-aware admission off.
type tracedController struct {
	*core.Controller
	spans *spanClock

	init, route, tick    time.Duration
	routeCalls, routeNil int64
	tickCalls            int64
	cands                map[*sim.FunctionState][]scheduler.Candidate // by instance ID
}

func newTracedController(c *core.Controller, spans *spanClock) *tracedController {
	return &tracedController{Controller: c, spans: spans, cands: map[*sim.FunctionState][]scheduler.Candidate{}}
}

func (c *tracedController) Init(e *sim.Engine) {
	t0 := c.spans.enter()
	c.Controller.Init(e)
	c.init += c.spans.exit(t0)
}

func (c *tracedController) Route(e *sim.Engine, f *sim.FunctionState, r *sim.Request) *sim.Instance {
	t0 := c.spans.enter()
	inst := c.Controller.Route(e, f, r)
	c.route += c.spans.exit(t0)
	c.routeCalls++
	if inst == nil {
		c.routeNil++
		return nil
	}
	c.note(f, inst)
	return inst
}

// note remembers the candidate (model resources) of each instance Route
// returns, so the exec-time replay can price submitted batches.
func (c *tracedController) note(f *sim.FunctionState, inst *sim.Instance) {
	ids := c.cands[f]
	if inst.ID < len(ids) && ids[inst.ID].B != 0 {
		return
	}
	for len(ids) <= inst.ID {
		ids = append(ids, scheduler.Candidate{})
	}
	ids[inst.ID] = inst.Cand
	c.cands[f] = ids
}

// candidate returns the recorded candidate of fn's instance id.
func (c *tracedController) candidate(f *sim.FunctionState, id int) (scheduler.Candidate, bool) {
	ids := c.cands[f]
	if id >= len(ids) || ids[id].B == 0 {
		return scheduler.Candidate{}, false
	}
	return ids[id], true
}

func (c *tracedController) Tick(e *sim.Engine, f *sim.FunctionState) {
	t0 := c.spans.enter()
	c.Controller.Tick(e, f)
	c.tick += c.spans.exit(t0)
	c.tickCalls++
}

// countingPredictor counts and times Predict calls. The benchmark puts
// one outside scheduler.NewPredictorCache (every lookup) and one inside
// it (the misses that reach the COP predictor). Safe for concurrent use:
// the gateway predicts from request goroutines.
type countingPredictor struct {
	inner scheduler.Predictor
	calls atomic.Int64
	ns    atomic.Int64
}

func (p *countingPredictor) Predict(m *model.Model, b int, res perf.Resources) time.Duration {
	t0 := time.Now()
	d := p.inner.Predict(m, b, res)
	p.ns.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	return d
}

// tracedPredictors is the predictor stack of a traced run: counting
// wrappers outside and inside the cache over the default COP predictor.
type tracedPredictors struct {
	outer, inner *countingPredictor
}

func newTracedPredictors() *tracedPredictors {
	inner := &countingPredictor{inner: profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions()))}
	outer := &countingPredictor{inner: scheduler.NewPredictorCache(inner)}
	return &tracedPredictors{outer: outer, inner: inner}
}

// report puts the predictor counts into layer metrics.
func (p *tracedPredictors) report(m metricSet) {
	calls := p.outer.calls.Load()
	m.set("profiler.predict_calls", float64(calls), "count")
	m.set("profiler.predict_ns", ratio(float64(p.outer.ns.Load()), float64(calls)), "ns")
	m.set("profiler.cache_miss_ratio", ratio(float64(p.inner.calls.Load()), float64(calls)), "ratio")
}

// tracedLSTH wraps LSTH, the INFless default policy. It embeds the
// concrete *coldstart.LSTH so Decide (coldstart.TierPolicy) stays
// promoted for tiered storage. Only LSTH is wrapped: the engine
// type-asserts coldstart.Fixed, which a wrapper would hide.
type tracedLSTH struct {
	*coldstart.LSTH
	spans *spanClock

	windows         time.Duration
	windowsCalls    int64
	recordIdleCalls int64
}

func (p *tracedLSTH) RecordIdle(idle, now time.Duration) {
	p.recordIdleCalls++
	p.LSTH.RecordIdle(idle, now)
}

func (p *tracedLSTH) Windows(now time.Duration) (time.Duration, time.Duration) {
	t0 := p.spans.enter()
	pre, keep := p.LSTH.Windows(now)
	p.windows += p.spans.exit(t0)
	p.windowsCalls++
	return pre, keep
}

// execKey is one distinct batch shape for the exec-time replay.
type execKey struct {
	m   *model.Model
	b   int
	res perf.Resources
}

// layerObserver counts lifecycle events and keeps the served requests'
// latency components in model time. It implements runtime.Observer plus
// the optional startup and shed extensions, and is safe for concurrent
// use (gateway instances report from their own goroutines).
type layerObserver struct {
	plane.NopObserver
	mu sync.Mutex

	arrivals, shed                   int64
	launches, coldLaunches, reclaims int64
	batches, batchSum                int64
	queue, exec, cold                []time.Duration

	tierLaunches [artifact.NumTiers]int64
	tierStartup  [artifact.NumTiers]time.Duration

	// batchShape, when set, resolves a submitted batch's shape for the
	// exec-time replay (the simulator's traced run sets it).
	batchShape func(fn string, instance, size int) (execKey, bool)
	shapes     map[execKey]int64
	unresolved int64
}

func newLayerObserver() *layerObserver { return &layerObserver{shapes: map[execKey]int64{}} }

func (o *layerObserver) RequestArrived(string, time.Duration) {
	o.mu.Lock()
	o.arrivals++
	o.mu.Unlock()
}

func (o *layerObserver) BatchSubmitted(fn string, instance, size int, _ time.Duration) {
	o.mu.Lock()
	o.batches++
	o.batchSum += int64(size)
	if o.batchShape != nil {
		if k, ok := o.batchShape(fn, instance, size); ok {
			o.shapes[k]++
		} else {
			o.unresolved++
		}
	}
	o.mu.Unlock()
}

func (o *layerObserver) RequestServed(_ string, s metrics.Sample, _ time.Duration) {
	o.mu.Lock()
	o.queue = append(o.queue, s.Queue)
	o.exec = append(o.exec, s.Exec)
	if s.Cold > 0 {
		o.cold = append(o.cold, s.Cold)
	}
	o.mu.Unlock()
}

func (o *layerObserver) InstanceLaunched(_ string, _ int, cold bool, _, _ time.Duration) {
	o.mu.Lock()
	o.launches++
	if cold {
		o.coldLaunches++
	}
	o.mu.Unlock()
}

func (o *layerObserver) InstanceReclaimed(string, int, time.Duration) {
	o.mu.Lock()
	o.reclaims++
	o.mu.Unlock()
}

// InstanceStartup implements runtime.StartupObserver.
func (o *layerObserver) InstanceStartup(_ string, _ int, bd artifact.Breakdown, _ time.Duration) {
	o.mu.Lock()
	if bd.From < artifact.NumTiers {
		o.tierLaunches[bd.From]++
		o.tierStartup[bd.From] += bd.Total()
	}
	o.mu.Unlock()
}

// RequestShed implements runtime.ShedObserver.
func (o *layerObserver) RequestShed(string, time.Duration) {
	o.mu.Lock()
	o.shed++
	o.mu.Unlock()
}

// report puts the lifecycle, batching and artifact counts into layer
// metrics. Call it after the plane has stopped reporting.
func (o *layerObserver) report(m metricSet) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m.set("lifecycle.launches", float64(o.launches), "count")
	m.set("lifecycle.cold_launches", float64(o.coldLaunches), "count")
	m.set("lifecycle.reclaims", float64(o.reclaims), "count")
	m.set("batch.count", float64(o.batches), "count")
	m.set("batch.mean_size", ratio(float64(o.batchSum), float64(o.batches)), "requests")
	q, cold := summarize(durMs(o.queue)), summarize(durMs(o.cold))
	fmt.Printf("trace: batch queue ms %s; cold-start wait ms %s\n", q, cold)
	m.set("batch.queue_p50_ms", orZero(q.P50), "ms")
	m.set("batch.queue_p99_ms", q.upTo99(), "ms")
	m.set("request.cold_p99_ms", cold.upTo99(), "ms")
	m.set("request.exec_p50_ms", orZero(summarize(durMs(o.exec)).P50), "ms")
	for t := artifact.Tier(0); t < artifact.NumTiers; t++ {
		n := o.tierLaunches[t]
		m.set("artifact.launches."+t.String(), float64(n), "count")
		m.set("artifact.startup_ms."+t.String(), ratio(float64(o.tierStartup[t])/float64(time.Millisecond), float64(n)), "ms")
	}
}

// replayExec times Model.ExecTime over every recorded batch shape, as
// many times as the run submitted it, with the engine's default
// contention and noise. It runs after Engine.Run, outside its span.
func (o *layerObserver) replayExec(m metricSet, seed int64) {
	opts := model.DefaultExecOptions(newRand(seed))
	var calls int64
	t0 := time.Now()
	for k, n := range o.shapes {
		for i := int64(0); i < n; i++ {
			k.m.ExecTime(k.b, k.res, opts)
		}
		calls += n
	}
	elapsed := time.Since(t0)
	m.set("model.exec_calls", float64(calls), "count")
	m.set("model.exec_ns_per_batch", ratio(float64(elapsed), float64(calls)), "ns")
}
