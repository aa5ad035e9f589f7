package gateway

// function.go is the wall-clock data plane. The instance lifecycle —
// batching (full-or-timeout, Section 3.2), startup pricing, served
// samples, keep-alive and reclaim — is the runtime.Instance machine the
// simulator also drives; here each instance guards it with a mutex, and
// one goroutine per instance runs its timers in plane time (model-time
// offsets from the server epoch, scaled by SpeedFactor), publishing
// observer events after unlocking. Routing, the warm-up hold, reactive
// scale-out and admission control are the gateway's own.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tanklab/infless/internal/runtime"
	"github.com/tanklab/infless/internal/scheduler"
)

// function is one deployed function's runtime state.
type function struct {
	runtime.Function // the lifecycle view its instances share

	srv  *Server
	plan *scheduler.Plan

	// maxWait is the admission bound (Config.MaxQueue): when waiting
	// exceeds it, new arrivals shed with 429. Non-positive disables it.
	maxWait int64
	// waiting counts invocations currently inside the gateway (queued
	// for dispatch or executing), maintained lock-free on the hot path.
	waiting atomic.Int64

	// insts is the dispatch snapshot: the pool's members pre-sorted by
	// r_up descending, republished under f.mu on every membership change
	// so offer() walks it with no lock and no per-request sort.
	insts atomic.Pointer[[]*instance]

	mu        sync.Mutex
	pool      runtime.Pool[*instance]
	launchDue time.Duration // plane time; 0 = no launch pending
	closed    bool
}

// publishInstances rebuilds the lock-free dispatch snapshot from the
// pool, ordered by saturation rate r_up descending — the non-uniform
// dispatch preference, applied once per membership change instead of
// once per request. Callers hold f.mu (or, at construction time, have
// exclusive ownership).
func (f *function) publishInstances() {
	insts := f.pool.Snapshot()
	sort.Slice(insts, func(i, j int) bool {
		return insts[i].Cand.Bounds.RUp > insts[j].Cand.Bounds.RUp
	})
	f.insts.Store(&insts)
}

// launchDebounce is how long (in model time) an overflow must persist
// before the gateway sizes and launches an instance. The simulator's
// autoscaler aggregates a full ScaleInterval (1s) of arrivals before
// deciding; launching at the first overflowing request instead would
// size the instance from a near-empty estimator and lock a burst into
// batch-of-1 capacity. One fifth of a tick reacts fast while letting a
// request wave register.
const launchDebounce = 200 * time.Millisecond

// noteArrival records an invocation at plane time now in the server's
// striped rate map — the stripe lock replaces f.mu here, so arrivals
// for different functions never serialize on one another. The shared
// estimator expires arrivals older than the rate window, so the first
// request after an idle gap no longer sees the pre-idle rate (the
// former fixed-size arrival log never expired).
func (f *function) noteArrival(now time.Duration) {
	f.srv.rates.Observe(f.Name, now)
	f.srv.obs.RequestArrived(f.Name, now)
}

// demand estimates the model-time request rate for scale-out sizing:
// max(windowed estimate, short-horizon burst), floored at one RPS — the
// gateway scales out reactively (no periodic autoscaler tick), so a
// surge is sized by its instantaneous rate instead of being averaged
// away. Safe with or without f.mu held; the stripe lock is the guard.
func (f *function) demand(now time.Duration) float64 {
	return f.srv.rates.Demand(f.Name, now)
}

// invocation is one in-flight request.
type invocation struct {
	arrived time.Duration // plane time
	respCh  chan invokeResult
}

type invokeResult struct {
	res InvokeResponse
	err error
}

// instance is the shared lifecycle machine, guarded by mu, and the
// timers its loop goroutine waits on. The goroutine holds one
// srv.instWG count, so Close can join it.
type instance struct {
	runtime.Instance[*invocation]
	f  *function
	mu sync.Mutex
	// due is when each armed ready, batch or idle timer expires, in plane
	// time (never: stopped). One wake timer stands for all three: it is
	// set for wakeAt, the earliest due when armed, or earlier, since a
	// stop or a later re-arm leaves it alone and the loop re-sets it on
	// waking. A batch-of-one round thus costs one timer reset, exec's.
	due    [runtime.ExecTimer]time.Duration
	wakeAt time.Duration
	wake   *time.Timer
	exec   *time.Timer
	quit   chan struct{} // closed once the machine is reclaimed
}

// never is the due time of a stopped timer.
const never = time.Duration(math.MaxInt64)

// Sentinel errors for the invoke path. Sentinels instead of fmt.Errorf
// keep the hot path allocation-free and let handleInvoke map each cause
// to its preformatted body and status code (429 for the shed family,
// 404 for undeployed, 503 for the rest).
var (
	// errWaitWarm signals that scale-out declined to launch because an
	// instance is already warming: the caller should hold its request
	// and re-offer, the way the simulator parks unplaceable requests in
	// the Pending backlog until the autoscaler's launch comes up.
	errWaitWarm = errors.New("gateway: instance warming, backlog held")
	// errShedQueueFull: admission control refused the request because
	// the function already holds Config.MaxQueue invocations.
	errShedQueueFull = errors.New("gateway: function queue full, request shed")
	// errShedNoCapacity: the cluster cannot host another instance and no
	// existing instance has queue room.
	errShedNoCapacity = errors.New("gateway: cluster capacity exhausted, request shed")
	// errShedSaturated: the warm-up hold expired without queue room.
	errShedSaturated = errors.New("gateway: function saturated, request shed")
	// errUndeployed: the function was deleted while the request was in
	// flight.
	errUndeployed = errors.New("gateway: function undeployed")
	// errInvokeTimeout: the dispatched request outlived its deadline.
	errInvokeTimeout = errors.New("gateway: request timed out")
	// errInstanceStopped: the owning instance shut down (undeploy) or
	// idled out with the request still queued.
	errInstanceStopped = errors.New("gateway: instance stopped")
)

// invocationPool recycles invocation headers and their reply channels.
// An invocation returns to the pool only when its owner is certain no
// instance still holds a reference: after receiving the (single) reply,
// or when it was never enqueued. Timeout/cancel paths abandon the
// invocation to the garbage collector instead — the buffered reply
// channel lets a late instance send complete without contaminating a
// reused invocation.
var invocationPool = sync.Pool{
	New: func() any { return &invocation{respCh: make(chan invokeResult, 1)} },
}

// deadlinePool recycles the per-request deadline timers. Safe because
// the module requires Go >= 1.23 timer semantics: Stop guarantees no
// late send, so a recycled timer can be Reset without draining races.
var deadlinePool = sync.Pool{}

func getDeadline(d time.Duration) *time.Timer {
	if t, ok := deadlinePool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putDeadline(t *time.Timer) {
	t.Stop()
	deadlinePool.Put(t)
}

// invoke routes one request: admission check, try existing instances,
// scale out if needed, and wait for the batch execution to answer.
// While an instance is warming, overflow requests are held and
// re-offered instead of triggering a launch stampede — the gateway's
// analog of the simulator's Pending backlog. Unlike the simulator
// (whose expirePending models clients timing out at the SLO), a held
// request lives as long as the HTTP client keeps waiting: a real server
// cannot un-answer, so it serves late and lets the violation show up in
// ViolationRate. The hold is bounded: when it expires, or the cluster
// cannot grow, or the function already holds MaxQueue invocations, the
// request sheds (429) instead of queueing unboundedly.
func (f *function) invoke(ctx context.Context) (InvokeResponse, error) {
	if n := f.waiting.Add(1); f.maxWait > 0 && n > f.maxWait {
		f.waiting.Add(-1)
		f.noteArrival(f.srv.PlaneNow())
		f.shed()
		return InvokeResponse{}, errShedQueueFull
	}
	inv := invocationPool.Get().(*invocation)
	inv.arrived = f.srv.PlaneNow()
	f.noteArrival(inv.arrived)
	slo := f.Batch.SLO

	holdUntil := time.Now().Add(f.srv.wall(4*slo) + time.Second)
	poll := f.srv.wall(slo) / 16
	if poll < 200*time.Microsecond {
		poll = 200 * time.Microsecond
	}
	for !f.offer(inv) {
		err := f.scaleOut()
		if err == nil {
			continue // instance launched; its queue has room
		}
		if err == errWaitWarm && time.Now().Before(holdUntil) {
			time.Sleep(poll)
			continue
		}
		// Never enqueued: the invocation is exclusively ours to recycle.
		f.waiting.Add(-1)
		invocationPool.Put(inv)
		switch err {
		case errWaitWarm:
			f.shed()
			return InvokeResponse{}, errShedSaturated
		case errShedNoCapacity:
			f.shed()
			return InvokeResponse{}, err
		default: // errUndeployed
			f.drop()
			return InvokeResponse{}, err
		}
	}
	deadline := getDeadline(f.srv.wall(4*slo) + time.Second)
	select {
	case r := <-inv.respCh:
		f.waiting.Add(-1)
		putDeadline(deadline)
		// The single reply has been received; no instance holds inv.
		invocationPool.Put(inv)
		return r.res, r.err
	case <-ctx.Done():
		// inv stays with its instance; abandon it to the GC (its
		// buffered channel absorbs the eventual reply).
		f.waiting.Add(-1)
		putDeadline(deadline)
		return InvokeResponse{}, ctx.Err()
	case <-deadline.C:
		f.waiting.Add(-1)
		putDeadline(deadline)
		return InvokeResponse{}, errInvokeTimeout
	}
}

// offer attempts a non-blocking enqueue, preferring instances with the
// highest saturation rate r_up — a greedy approximation of INFless
// non-uniform dispatching (the simulator weights dispatch credits by
// r_up the same way), so load concentrates on big-batch instances and
// undersized ones from the startup ramp starve and idle out. The walk
// takes no function lock and allocates nothing: the r_up order was
// applied when the membership snapshot was published, not per request.
func (f *function) offer(inv *invocation) bool {
	p := f.insts.Load()
	if p == nil {
		return false
	}
	for _, inst := range *p {
		if inst.enqueue(inv) {
			return true
		}
	}
	return false
}

// scaleOut launches one more instance via Algorithm 1 (the plan was built
// with MaxInstancesPerCall = 1). The rate estimate lets AvailableConfig
// admit saturable batch sizes, exactly as the autoscaler does in the
// simulator. Launching is the declared slow path off the zero-alloc
// invoke route: it builds an instance, its timers, a channel and an
// RNG per call.
//
//lint:coldpath
func (f *function) scaleOut() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errUndeployed
	}
	// One launch at a time: while an instance is warming, hold the
	// backlog instead of stampeding into more launches (the simulator's
	// autoscaler likewise places at most one instance per tick, and a
	// cold start spans roughly one tick of model time).
	now := f.srv.PlaneNow()
	for _, inst := range f.pool.Members() {
		if inst.ReadyAt > now {
			f.mu.Unlock()
			return errWaitWarm
		}
	}
	// Debounce: the first overflow arms a launch deadline; the launch
	// itself happens once the deadline passes, so the demand estimate
	// below has seen the whole request wave, not just its first packet.
	if f.launchDue == 0 || now < f.launchDue {
		if f.launchDue == 0 {
			f.launchDue = now + launchDebounce
		}
		f.mu.Unlock()
		return errWaitWarm
	}
	f.launchDue = 0
	// Size the launch by the estimator's CURRENT view (like the sim's
	// autoscaler at tick time), not by whichever request happened to
	// trigger this call. When scale-out runs, no existing capacity could
	// place the request, so the whole demand is residual; provision it
	// with the same alpha headroom the simulator applies (Section 3.2).
	rate := f.demand(now)
	target := runtime.ScaleAheadTarget(rate, rate, runtime.DefaultAlpha)
	cl := f.srv.cfg.Cluster
	f.srv.clMu.Lock()
	decisions, _ := f.plan.Schedule(target, cl)
	if len(decisions) == 0 {
		f.srv.clMu.Unlock()
		f.mu.Unlock()
		return errShedNoCapacity
	}
	d := decisions[0]
	startup, bd, tiered := f.Startup(cl.Server(d.Server).Artifacts())
	alloc := cl.TotalAllocated()
	f.srv.clMu.Unlock()
	now = f.srv.PlaneNow()
	inst := &instance{f: f, wakeAt: never, wake: stoppedTimer(), exec: stoppedTimer(), quit: make(chan struct{})}
	inst.due = [...]time.Duration{never, never, never}
	rng := rand.New(rand.NewSource(f.srv.cfg.Seed + int64(f.pool.Len()) + 7))
	inst.Instance = runtime.NewInstance[*invocation](&f.Function, f.pool.NextID(), d.Candidate, d.Server, now+startup, rng, inst)
	f.pool.Add(inst)
	f.publishInstances()
	// Counted under f.mu: a shutdown either ran before (closed) or
	// happens after this Add, so Close's Wait never races it.
	f.srv.instWG.Add(1)
	f.mu.Unlock()
	f.srv.obs.InstanceLaunched(f.Name, inst.ID, true, startup, now)
	if tiered {
		f.srv.obs.InstanceStartup(f.Name, inst.ID, bd, now)
	}
	f.srv.obs.AllocationChanged(alloc, now)
	inst.mu.Lock()
	inst.Start()
	inst.mu.Unlock()
	go inst.loop()
	return nil
}

func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

func (f *function) drop() {
	f.srv.obs.RequestDropped(f.Name, f.srv.PlaneNow())
}

// shed records an admission-control refusal: the request is dropped
// (it keeps its place in loss accounting) AND shed (the cause surfaces
// in infless_shed_total and the snapshot's "shed" field).
func (f *function) shed() {
	now := f.srv.PlaneNow()
	f.srv.obs.RequestDropped(f.Name, now)
	f.srv.obs.RequestShed(f.Name, now)
}

// shutdown reclaims every instance; executing batches still answer.
func (f *function) shutdown() {
	f.mu.Lock()
	f.closed = true
	insts := f.pool.Clear()
	f.publishInstances()
	f.mu.Unlock()
	f.srv.rates.Remove(f.Name)
	for _, inst := range insts {
		inst.step(reclaimNow)
	}
}

// enqueue offers inv to the instance's batch queue.
func (inst *instance) enqueue(inv *invocation) bool {
	inst.mu.Lock()
	ok, s := inst.Enqueue(inv)
	inst.mu.Unlock()
	if !ok {
		return false
	}
	inst.f.srv.obs.RequestEnqueued(inst.f.Name, inst.ID, inv.arrived)
	inst.publish(s)
	return true
}

// loop is the instance goroutine: it runs each timer's transition as
// the timer fires, until the machine is reclaimed. A batch executing at
// reclaim still completes and answers before the goroutine exits.
func (inst *instance) loop() {
	defer inst.f.srv.instWG.Done()
	for {
		select {
		case <-inst.wake.C:
			inst.step(inst.fireDue)
		case <-inst.exec.C:
			inst.complete()
		case <-inst.quit:
			inst.mu.Lock()
			busy := inst.Busy
			inst.mu.Unlock()
			if busy {
				<-inst.exec.C
				inst.complete()
			}
			return
		}
	}
}

// fireDue is the wake timer's transition: it fires the earliest timer
// if it has expired, then sets the wake for the next.
func (inst *instance) fireDue() runtime.Step {
	k := runtime.ReadyTimer
	for j, at := range inst.due {
		if at < inst.due[k] {
			k = runtime.Timer(j)
		}
	}
	var s runtime.Step
	inst.wakeAt = never // it just fired
	if inst.due[k] <= inst.Now() {
		inst.due[k] = never
		s = inst.Fire(k)
	}
	for _, at := range inst.due {
		inst.wakeFor(at)
	}
	return s
}

// wakeFor sets the wake timer for plane time at unless it is due sooner.
func (inst *instance) wakeFor(at time.Duration) {
	if at < inst.wakeAt {
		inst.wakeAt = at
		inst.wake.Reset(inst.f.srv.wall(at - inst.Now()))
	}
}

// step runs a transition under inst.mu, with any reclaim it calls for,
// so no request slips in between decision and reclaim; everything
// observable happens after unlocking.
func (inst *instance) step(transition func() runtime.Step) {
	inst.mu.Lock()
	s := transition()
	var queued []*invocation
	reclaimed := false
	if s.Reclaim {
		queued, reclaimed = inst.Reclaim()
	}
	inst.mu.Unlock()
	inst.publish(s)
	if reclaimed {
		close(inst.quit) // Reclaim succeeds once
		inst.release(queued, errInstanceStopped)
	}
}

// reclaimNow is the transition that takes an instance out of service.
func reclaimNow() runtime.Step { return runtime.Step{Reclaim: true} }

// publish announces a submitted batch, then starts its execution timer,
// so BatchSubmitted precedes its served events.
func (inst *instance) publish(s runtime.Step) {
	if s.Submitted == 0 {
		return
	}
	inst.f.srv.obs.BatchSubmitted(inst.f.Name, inst.ID, s.Submitted, s.At)
	inst.exec.Reset(inst.f.srv.wall(s.Exec))
}

// complete answers the executed batch: a busy instance drains nothing,
// so the batch is stable until Finish and its samples and replies go
// out unlocked. It runs once per batch and must not allocate.
//
//lint:hotpath
func (inst *instance) complete() {
	f := inst.f
	inst.mu.Lock()
	batch, at, exec := inst.InFlight()
	inst.mu.Unlock()
	now := at + exec // the emulated completion, as the simulator stamps it
	for _, inv := range batch {
		s := inst.Served(inv.arrived)
		f.srv.obs.RequestServed(f.Name, s, now)
		inv.respCh <- invokeResult{res: InvokeResponse{
			Function:  f.Name,
			LatencyMs: float64(s.Total()) / float64(time.Millisecond),
			BatchSize: len(batch),
			ColdStart: s.Cold > 0,
			Instance:  inst.ID,
		}}
	}
	inst.step(inst.resume)
}

func (inst *instance) resume() runtime.Step {
	inst.Finish()
	return inst.Continue()
}

// release is a reclaim's aftermath outside inst.mu: pool, cluster and
// checkpoint bookkeeping, the failed replies, the observer events. A
// lifecycle event, not a per-request step: the declared slow path.
//
//lint:coldpath
func (inst *instance) release(queued []*invocation, err error) {
	f := inst.f
	f.mu.Lock()
	f.pool.Remove(inst)
	f.publishInstances()
	f.mu.Unlock()
	now := f.srv.PlaneNow()
	f.srv.clMu.Lock()
	inst.Release(f.srv.cfg.Cluster, now)
	alloc := f.srv.cfg.Cluster.TotalAllocated()
	f.srv.clMu.Unlock()
	for _, inv := range queued {
		inv.respCh <- invokeResult{err: err}
	}
	f.srv.obs.InstanceReclaimed(f.Name, inst.ID, now)
	f.srv.obs.AllocationChanged(alloc, now)
}

// The runtime.Timers driver; the machine calls it with inst.mu held.

func (inst *instance) Now() time.Duration { return inst.f.srv.PlaneNow() }

// Arm (re)starts timer k, except the execution timer: publish starts it
// once BatchSubmitted is out.
func (inst *instance) Arm(k runtime.Timer, at time.Duration) {
	if k == runtime.ExecTimer {
		return
	}
	inst.due[k] = at
	inst.wakeFor(at)
}

func (inst *instance) Stop(k runtime.Timer) { inst.due[k] = never }
