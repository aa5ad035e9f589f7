package main

// sched.go drives the control plane with no data plane: scheduler.BuildPlan,
// Plan.Schedule, cluster.New and Cluster.Release on 100,000 servers.

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/scheduler"
)

const (
	schedServers   = 100000
	schedShards    = 16
	schedFunctions = 40
	// The loop places instances until the allocated share of weighted
	// capacity passes schedHigh, then releases seeded instances until it
	// falls below schedLow. The band is low enough that every Schedule
	// call finds room, so no operation fails.
	schedLow  = 0.10
	schedHigh = 0.12
	// schedCheckOps is how many operations after the prefill the
	// reference replay (one shard, one fit worker) must reproduce.
	schedCheckOps = 5000
)

// liveInstance is one placed instance the loop may release.
type liveInstance struct {
	server int
	res    perf.Resources
	memMB  int
	rup    float64
}

// churnLoop is sched-100k's seeded place/release loop over one cluster.
type churnLoop struct {
	cl    *cluster.Cluster
	plans []*scheduler.Plan
	rng   *rand.Rand
	live  []liveInstance
	capW  float64

	low, high float64
	draining  bool

	placed, refused, released int64
	// digest folds every decision (server and configuration of each
	// placement, index of each release) into one value, so two loops
	// over the same inputs can be compared decision by decision.
	digest uint64
}

func newChurnLoop(cl *cluster.Cluster, plans []*scheduler.Plan, seed int64, low, high float64) *churnLoop {
	return &churnLoop{cl: cl, plans: plans, rng: newRand(seed), capW: cl.TotalCapacity().Weighted(),
		low: low, high: high, digest: 14695981039346656037}
}

// share is the allocated share of the cluster's weighted capacity.
func (c *churnLoop) share() float64 { return c.cl.TotalAllocated().Weighted() / c.capW }

// fold mixes vals into the digest, FNV-1a over their bytes.
func (c *churnLoop) fold(vals ...int64) {
	h := c.digest
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	c.digest = h
}

// step performs one operation: a Schedule call while filling toward
// the high watermark, a release while draining toward the low one. It
// reports which it was and how long the call into the program took.
func (c *churnLoop) step() (release bool, took time.Duration) {
	s := c.share()
	if c.draining && s < c.low {
		c.draining = false
	} else if !c.draining && s >= c.high {
		c.draining = true
	}
	if c.draining && len(c.live) > 0 {
		j := c.rng.Intn(len(c.live))
		in := c.live[j]
		c.live[j] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
		t0 := time.Now()
		c.cl.Release(in.server, in.res, in.memMB)
		took = time.Since(t0)
		c.released++
		c.fold(-1, int64(j))
		return true, took
	}
	i := c.rng.Intn(len(c.plans))
	rps := 10 + c.rng.Float64()*2000
	p := c.plans[i]
	t0 := time.Now()
	ds, _ := p.Schedule(rps, c.cl)
	took = time.Since(t0)
	if len(ds) == 0 {
		c.refused++
		c.fold(int64(i), -1)
		return false, took
	}
	for _, d := range ds {
		c.live = append(c.live, liveInstance{server: d.Server, res: d.Res, memMB: p.Fn.Model.MemoryMB, rup: d.Bounds.RUp})
		c.placed++
		c.fold(int64(i), int64(d.Server), int64(d.B), int64(d.Res.CPU), int64(d.Res.GPU))
	}
	return false, took
}

// prefill places instances until the share first reaches the low
// watermark.
func (c *churnLoop) prefill() {
	for c.share() < c.low {
		c.step()
	}
}

// thruPerResource is the placed serving capacity (the sum of the live
// instances' saturation rates r_up) per unit of weighted allocation.
func (c *churnLoop) thruPerResource() float64 {
	var rup float64
	for _, in := range c.live {
		rup += in.rup
	}
	return ratio(rup, c.cl.TotalAllocated().Weighted())
}

// schedPlans builds the 40 plans: the Table 1 zoo in turn, each with an
// SLO of three times its fastest batch-of-one time plus 50 ms.
func schedPlans(pred scheduler.Predictor, workers int) []*scheduler.Plan {
	zoo := model.Table1()
	plans := make([]*scheduler.Plan, schedFunctions)
	for i := range plans {
		m := zoo[i%len(zoo)]
		fn := scheduler.Function{Name: fmt.Sprintf("f%02d-%s", i, m.Name), Model: m, SLO: 3*m.MinExecTime(1) + 50*time.Millisecond}
		plans[i] = scheduler.BuildPlan(fn, pred, scheduler.Options{MaxInstancesPerCall: 1, FitWorkers: workers})
	}
	return plans
}

// schedSetup is one set-up: the cluster, the plans and the prefill.
type schedSetup struct {
	loop               *churnLoop
	total, clNew, plan time.Duration
}

func newSchedSetup(seed int64, shards, workers int, pred scheduler.Predictor) *schedSetup {
	s := &schedSetup{}
	t0 := time.Now()
	if pred == nil {
		pred = scheduler.NewPredictorCache(profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions())))
	}
	t1 := time.Now()
	cl := cluster.New(cluster.Options{Servers: schedServers, Shards: shards})
	s.clNew = time.Since(t1)
	t2 := time.Now()
	plans := schedPlans(pred, workers)
	s.plan = time.Since(t2)
	s.loop = newChurnLoop(cl, plans, seed, schedLow, schedHigh)
	s.loop.prefill()
	s.total = time.Since(t0)
	return s
}

// schedWindow is one measured window: the Schedule call latencies, the
// release count and time, the loop's wall time, and the digest after the
// first schedCheckOps operations for the replay check.
type schedWindow struct {
	sched       []time.Duration
	releases    int64
	releaseTime time.Duration
	wall        time.Duration
	checkDigest uint64
	ops         int64
}

func schedMeasure(loop *churnLoop, seconds float64, cpu *cpuWindow) schedWindow {
	// Room for the latencies of a fast run, so growing the slice does
	// not add copying and collections to the window.
	w := schedWindow{sched: make([]time.Duration, 0, int(seconds*60000))}
	deadline := time.Duration(seconds * float64(time.Second))
	if cpu != nil {
		cpu.Start()
	}
	start := time.Now()
	for time.Since(start) < deadline || w.ops < schedCheckOps {
		// Check the clock every 256 operations, not on every one.
		for i := 0; i < 256; i++ {
			rel, took := loop.step()
			if rel {
				w.releases++
				w.releaseTime += took
			} else {
				w.sched = append(w.sched, took)
			}
			w.ops++
			if w.ops == schedCheckOps {
				w.checkDigest = loop.digest
			}
		}
	}
	w.wall = time.Since(start)
	if cpu != nil {
		cpu.Stop()
	}
	return w
}

func runSched100k(rc runConfig) (*result, error) {
	r := newResult()
	workers := goruntime.GOMAXPROCS(0)
	var setups []float64
	var s *schedSetup
	for i := 0; i < 3; i++ {
		s = nil
		goruntime.GC()
		s = newSchedSetup(rc.seed, schedShards, workers, nil)
		setups = append(setups, s.total.Seconds())
	}
	prefillDigest := s.loop.digest
	refused := s.loop.refused
	cpu := newCPUWindow(processCPU)
	before := readGoCounters()
	w := schedMeasure(s.loop, rc.seconds, cpu)
	after := readGoCounters()
	fmt.Printf("sched: %d Schedule calls, %d releases in %v; live instances %d, share %.4f\n",
		len(w.sched), w.releases, w.wall.Round(time.Millisecond), len(s.loop.live), s.loop.share())

	r.attempted = w.ops
	r.failed = s.loop.refused - refused
	lat := summarize(durMs(w.sched))
	fmt.Printf("sched: Schedule latency ms %s\n", lat)
	r.e2e.set("setup_s", median(setups), "s")
	r.e2e.set("ops_per_s", float64(w.ops)/w.wall.Seconds(), "1/s")
	r.e2e.set("cpu_us_per_op", cpu.PerOp(w.ops), "us")
	r.e2e.set("lat_p50_ms", lat.P50, "ms")
	r.layers.set("lat_p99_ms", orZero(lat.P99), "ms")
	r.e2e.set("thru_per_resource", s.loop.thruPerResource(), "req/res-s")
	mem, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.e2e.set("mem_peak_mb", mem, "MB")

	// Reference replay: the same inputs on one shard with one fit
	// worker must make the same decisions.
	ref := newSchedSetup(rc.seed, 1, 1, nil)
	r.check(ref.loop.digest == prefillDigest, "prefill decisions differ from the one-shard, one-worker replay")
	for i := 0; i < schedCheckOps; i++ {
		ref.loop.step()
	}
	r.check(ref.loop.digest == w.checkDigest,
		"the first %d decisions after the prefill differ from the one-shard, one-worker replay", schedCheckOps)
	ref = nil

	l := r.layers
	l.set("error_rate", ratio(float64(r.failed), float64(len(w.sched))), "ratio")
	goDelta(l, before, after, w.ops)
	if !rc.traced {
		return r, nil
	}

	s = nil
	goruntime.GC()
	preds := newTracedPredictors()
	ts := newSchedSetup(rc.seed, schedShards, workers, preds.outer)
	r.check(ts.loop.digest == prefillDigest, "traced prefill decisions differ from the untraced run")
	refused, placed := ts.loop.refused, ts.loop.placed
	tw := schedMeasure(ts.loop, rc.seconds/2, nil)
	r.check(tw.checkDigest == w.checkDigest, "traced decisions differ from the untraced run")
	r.attempted += tw.ops
	r.failed += ts.loop.refused - refused
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	l.set("cluster.new_ms", ms(ts.clNew), "ms")
	l.set("scheduler.build_plan_ms", ms(ts.plan), "ms")
	l.set("scheduler.placed", float64(ts.loop.placed-placed), "count")
	l.set("scheduler.refused", float64(ts.loop.refused-refused), "count")
	l.set("cluster.release_ns", ratio(float64(tw.releaseTime), float64(tw.releases)), "ns")
	l.set("cluster.frag_ratio", ts.loop.cl.FragmentationRatio(), "ratio")
	preds.report(l)
	l.set("trace_overhead_pct", (float64(w.ops)/w.wall.Seconds()/(float64(tw.ops)/tw.wall.Seconds())-1)*100, "%")
	return r, nil
}
