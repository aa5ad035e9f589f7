package sim

// instances.go drives the shared runtime.Instance lifecycle on the
// virtual clock, plus failures, pre-warm windows and artifact preloads.

import (
	"fmt"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
	"github.com/tanklab/infless/internal/simclock"
)

// warmStartTime is the activation cost of launching from a pre-warmed
// image; a full cold start instead pays the function's startup price.
const warmStartTime = 50 * time.Millisecond

// Instance is a running (or starting) function instance.
type Instance struct {
	runtime.Instance[*Request]
	Fn     *FunctionState
	timers simTimers
	lostAt time.Duration // set when the hosting server failed mid-batch
}

// simTimers implements runtime.Timers on the engine's clock; stored
// events are dropped when they fire (simclock recycles them).
type simTimers struct {
	e    *Engine
	inst *Instance
	ev   [runtime.ExecTimer]*simclock.Event
}

func (t *simTimers) Now() time.Duration { return t.e.clock.Now() }

func (t *simTimers) Arm(k runtime.Timer, at time.Duration) {
	if k == runtime.ExecTimer {
		t.e.clock.ScheduleAt(at, func() { t.e.onBatchComplete(t.inst) })
		return
	}
	t.Stop(k)
	t.ev[k] = t.e.clock.ScheduleAt(at, func() {
		t.ev[k] = nil
		t.e.publish(t.inst, t.inst.Fire(k))
	})
}

func (t *simTimers) Stop(k runtime.Timer) {
	if t.ev[k] != nil {
		t.ev[k].Cancel()
		t.ev[k] = nil
	}
}

// publish applies a transition's Step: submission event, reclaim.
func (e *Engine) publish(inst *Instance, s runtime.Step) {
	if s.Submitted > 0 {
		e.obs.BatchSubmitted(inst.Fn.Spec.Name, inst.ID, s.Submitted, e.clock.Now())
	}
	if s.Reclaim {
		e.Reclaim(inst)
	}
}

// Launch starts a new instance of f with candidate configuration cand on
// server. It returns nil when the cluster cannot host the instance.
func (e *Engine) Launch(f *FunctionState, cand scheduler.Candidate, server int) *Instance {
	if err := e.cfg.Cluster.Allocate(server, cand.Res, f.Spec.Model.MemoryMB); err != nil {
		return nil
	}
	return e.launchAllocated(f, cand, server)
}

// LaunchPlaced starts an instance whose resources were already reserved
// by scheduler.Plan.Schedule (which allocates as it packs).
func (e *Engine) LaunchPlaced(f *FunctionState, d scheduler.Decision) *Instance {
	return e.launchAllocated(f, d.Candidate, d.Server)
}

func (e *Engine) launchAllocated(f *FunctionState, cand scheduler.Candidate, server int) *Instance {
	now := e.clock.Now()
	e.allocationChanged()

	cold := now >= f.prewarmedUntil
	startup, bd, tiered := warmStartTime, artifact.Breakdown{}, false
	if cold {
		startup, bd, tiered = f.Startup(e.cfg.Cluster.Server(server).Artifacts())
	}
	f.ConfigCount[fmt.Sprintf("(%d,%d,%d)", cand.B, cand.Res.CPU, cand.Res.GPU)]++

	inst := &Instance{Fn: f}
	inst.timers = simTimers{e: e, inst: inst}
	inst.Instance = runtime.NewInstance[*Request](&f.Function, f.pool.NextID(), cand, server, now+startup, e.rng, &inst.timers)
	f.pool.Add(inst)
	e.obs.InstanceLaunched(f.Spec.Name, inst.ID, cold, startup, now)
	if tiered {
		e.obs.InstanceStartup(f.Spec.Name, inst.ID, bd, now)
	}
	inst.Start()
	return inst
}

// Retire marks an instance as draining: it receives no new requests and
// is reclaimed once its queue empties.
func (e *Engine) Retire(inst *Instance) { e.publish(inst, inst.Instance.Retire()) }

// Reclaim releases the instance's resources and removes it from its
// function, dropping queued requests. Reclaiming twice is a no-op.
func (e *Engine) Reclaim(inst *Instance) {
	queued, ok := inst.Instance.Reclaim()
	if !ok {
		return
	}
	now := e.clock.Now()
	f := inst.Fn
	for range queued {
		e.dropRequest(f)
	}
	inst.Release(e.cfg.Cluster, now)
	f.pool.Remove(inst)
	e.obs.InstanceReclaimed(f.Spec.Name, inst.ID, now)
	e.allocationChanged()
	if e.cfg.Storage.Active() && e.cfg.Storage.Preload {
		e.preload(f, inst.Server)
	}
	if f.pool.Len() == 0 {
		e.schedulePrewarm(f)
	}
}

// preloadPerReclaim caps how many artifacts one reclaim event may
// opportunistically pre-load into the freed server's spare DRAM.
const preloadPerReclaim = 2

// preload parks other functions' artifacts in the DRAM a reclaim freed
// on server, evicting nothing, in registration order for determinism.
func (e *Engine) preload(f *FunctionState, server int) {
	cache := e.cfg.Cluster.Server(server).Artifacts()
	if cache == nil {
		return
	}
	loaded := 0
	for _, g := range e.fns {
		if loaded >= preloadPerReclaim {
			break
		}
		if g == f || cache.Tier(g.Spec.Name) >= artifact.TierDRAM {
			continue
		}
		if cache.PutIfFree(g.Spec.Name, g.SizeMB, artifact.TierDRAM) {
			g.Preloads++
			loaded++
		}
	}
}

// failServer marks a server down and kills every instance hosted on it:
// in-flight batches are lost (their requests drop), queued requests drop,
// and the next autoscaler tick re-schedules the lost capacity elsewhere.
func (e *Engine) failServer(id int) {
	e.cfg.Cluster.SetDown(id, true)
	for _, f := range e.fns {
		// Collect first: Reclaim mutates the pool.
		var doomed []*Instance
		for _, inst := range f.Instances() {
			if inst.Server == id {
				doomed = append(doomed, inst)
			}
		}
		for _, inst := range doomed {
			if inst.Busy {
				// The executing batch dies with the server; its requests
				// never complete. Mark the instance free so Reclaim's
				// bookkeeping stays consistent; completion events for the
				// lost batch are disarmed via the lostAt marker.
				inst.Busy = false
				inst.lostAt = e.clock.Now()
			}
			e.Reclaim(inst)
		}
	}
}

// schedulePrewarm arms the function's pre-warming window after it went
// fully idle: the image is re-loaded `prewarm` later and stays available
// for `keepalive`, so launches within that window skip the cold start.
// Fixed keep-alive policies never pre-warm — once the instance is gone,
// the next launch is cold (the behavior of OpenFaaS and BATCH).
func (e *Engine) schedulePrewarm(f *FunctionState) {
	if f.Policy == nil {
		return
	}
	if _, fixed := f.Policy.(coldstart.Fixed); fixed {
		return
	}
	now := e.clock.Now()
	prewarm, keepalive := f.Policy.Windows(now)
	if f.prewarmEv != nil {
		f.prewarmEv.Cancel()
	}
	f.prewarmEv = e.clock.ScheduleAfter(prewarm, func() {
		f.prewarmEv = nil
		f.prewarmedUntil = e.clock.Now() + keepalive
	})
}
