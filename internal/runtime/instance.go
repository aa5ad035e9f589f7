package runtime

// instance.go is the per-instance lifecycle both data planes run: pay
// the startup, batch requests, submit when the batch is full or its
// head's deadline passes, then resubmit, reclaim (draining) or keep
// alive. Each plane supplies the Timers — simclock events or scaled
// wall-clock timers — and publishes each transition's Step itself.

import (
	"math/rand"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/batching"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/scheduler"
)

// Function is what the lifecycle needs to know about a function; all
// its instances share it.
type Function struct {
	Name  string
	Model *model.Model
	Batch BatchPolicy
	// Policy decides the keep-alive and the idle tier of the checkpoint
	// (nil: the fixed default keep-alive, SSD).
	Policy coldstart.Policy
	// Storage, when active, prices startups by the tier holding the
	// checkpoint of SizeMB; otherwise the legacy scalar formula applies.
	Storage *artifact.Config
	SizeMB  int
}

// Startup prices a cold launch on a server with artifact cache: the
// tier holding the checkpoint decides the load, and the checkpoint is
// promoted towards DRAM for the next launch there. Without active
// storage or a cache it is the legacy formula and tiered is false.
func (f *Function) Startup(cache *artifact.Cache) (d time.Duration, bd artifact.Breakdown, tiered bool) {
	if cache == nil || !f.Storage.Active() {
		return artifact.Legacy(f.Model.MemoryMB), bd, false
	}
	from := cache.Tier(f.Name)
	bd = f.Storage.Hierarchy.Startup(f.SizeMB, from)
	if landed := cache.Promote(f.Name, f.SizeMB, artifact.TierDRAM); landed > from {
		bd.Promote = f.Storage.Hierarchy.PromoteTime(f.SizeMB, landed)
	}
	return bd.Total(), bd, true
}

// keepAlive is how long an idle instance stays warm. With tiered
// storage the policy's tiered Decision governs: a shorter keep-alive,
// the DRAM-parked checkpoint covering the idle distribution's tail.
func (f *Function) keepAlive(now time.Duration) time.Duration {
	if f.Policy != nil && f.Storage.Active() {
		return coldstart.Tiered(f.Policy).Decide(now).KeepAlive
	}
	return KeepAlive(f.Policy, now)
}

// Timer names one of an instance's timers.
type Timer int

const (
	ReadyTimer Timer = iota // the startup completes
	BatchTimer              // the head batch's deadline passes
	IdleTimer               // the keep-alive expires
	ExecTimer               // the submitted batch completes
)

// Timers is a plane's clock and one instance's timers. When timer k
// fires the plane calls Fire(k); for ExecTimer it answers the batch,
// then calls Finish and Continue. The machine calls Timers while the
// plane holds the instance, so they only arm and stop timers: no
// observer call, no plane lock.
type Timers interface {
	Now() time.Duration
	Arm(k Timer, at time.Duration) // replaces a pending k, fires at plane time at
	Stop(k Timer)
}

// Step is what a transition did, for the plane to publish after
// releasing the instance: the batch it submitted (size 0 for none) at
// plane time At, executing for Exec, and whether the instance is due
// for reclaim.
type Step struct {
	Submitted int
	At, Exec  time.Duration
	Reclaim   bool
}

// Instance is one function instance and where it is in its lifecycle;
// R is the plane's request type.
type Instance[R any] struct {
	ID       int
	Cand     scheduler.Candidate
	Server   int
	ReadyAt  time.Duration // plane time the startup completes
	Ready    bool
	Busy     bool
	Draining bool
	Queue    *batching.Queue[R]
	Rate     float64 // dispatch weight (INFless non-uniform dispatching)
	credit   Credit

	fn          *Function
	t           Timers
	rng         *rand.Rand
	batchArmed  bool
	batchAt     time.Duration // when the armed batch timer fires
	idleAt      time.Duration // when the armed keep-alive expires
	batch       []R           // the in-flight batch, valid while Busy
	submittedAt time.Duration
	exec        time.Duration
	reclaimed   bool
}

// NewInstance creates an instance of fn configured by cand on server,
// ready at readyAt, for a plane to embed. rng draws execution noise.
func NewInstance[R any](fn *Function, id int, cand scheduler.Candidate, server int, readyAt time.Duration, rng *rand.Rand, t Timers) Instance[R] {
	return Instance[R]{
		ID:      id,
		Cand:    cand,
		Server:  server,
		ReadyAt: readyAt,
		Queue:   batching.NewQueue[R](cand.B, fn.Batch.Timeout(cand.TExec)),
		Rate:    cand.Bounds.RUp,
		fn:      fn,
		t:       t,
		rng:     rng,
	}
}

// CanAccept reports whether the batch queue has room (it holds 2B).
func (in *Instance[R]) CanAccept() bool { return in.Queue.Len() < 2*in.Cand.B }

// Credit returns the instance's dispatch credit (see internal/core).
func (in *Instance[R]) Credit() float64 { return in.credit.Balance() }

// AddCredit adjusts the dispatch credit, clamped from above by cap.
func (in *Instance[R]) AddCredit(delta, cap float64) { in.credit.Add(delta, cap) }

// Enqueue offers r to the batch queue; false means the queue is at its
// 2B bound or the instance is gone.
func (in *Instance[R]) Enqueue(r R) (bool, Step) {
	if in.reclaimed {
		return false, Step{}
	}
	now := in.t.Now()
	accepted, full := in.Queue.Add(r, now)
	if !accepted {
		return false, Step{}
	}
	in.t.Stop(IdleTimer)
	var s Step
	if full {
		s = in.trySubmit(now)
	}
	in.armTimeout(now)
	return true, s
}

// Start arms the startup; the plane calls it once the launch is out.
func (in *Instance[R]) Start() {
	if !in.reclaimed {
		in.t.Arm(ReadyTimer, in.ReadyAt)
	}
}

// Fire is timer k going off: the end of the startup (serve what queued
// meanwhile, or keep alive), the head batch's deadline, or the
// keep-alive (a still idle instance is due for reclaim). A keep-alive
// fire before the armed expiry is stale: a wall-clock timer can fire
// and lose the race for the instance to a re-arm.
func (in *Instance[R]) Fire(k Timer) Step {
	if in.reclaimed {
		return Step{}
	}
	now := in.t.Now()
	switch k {
	case ReadyTimer:
		in.Ready = true
		return in.next(now, false)
	case BatchTimer:
		in.batchArmed = false
		return in.trySubmit(now)
	}
	return Step{Reclaim: now >= in.idleAt && in.idle()}
}

// Retire marks the instance draining: routers skip it, and it is
// reclaimed once idle.
func (in *Instance[R]) Retire() Step {
	in.Draining = true
	return Step{Reclaim: in.idle()}
}

func (in *Instance[R]) idle() bool {
	return in.Ready && !in.Busy && in.Queue.Len() == 0
}

// InFlight returns the executing batch (valid until Finish), its
// submission time and execution time.
func (in *Instance[R]) InFlight() (batch []R, submittedAt, exec time.Duration) {
	return in.batch, in.submittedAt, in.exec
}

// Served decomposes the latency of an in-flight request that arrived
// at arrive: the startup wait (arrivals before ReadyAt), the batch wait
// until submission, and the execution.
func (in *Instance[R]) Served(arrive time.Duration) metrics.Sample {
	var cold, queue time.Duration
	if arrive < in.ReadyAt {
		cold = in.ReadyAt - arrive
		queue = in.submittedAt - in.ReadyAt
	} else {
		queue = in.submittedAt - arrive
	}
	if queue < 0 {
		queue = 0
	}
	return metrics.Sample{Cold: cold, Queue: queue, Exec: in.exec}
}

// Finish frees the instance; Continue then looks at its queue.
func (in *Instance[R]) Finish() { in.Busy = false }

// Continue resubmits when requests wait, reclaims a draining instance,
// and otherwise keeps alive.
func (in *Instance[R]) Continue() Step {
	if in.reclaimed {
		return Step{}
	}
	return in.next(in.t.Now(), in.Draining)
}

func (in *Instance[R]) next(now time.Duration, reclaim bool) Step {
	switch {
	case in.Queue.Len() > 0:
		s := in.trySubmit(now)
		in.armTimeout(now)
		return s
	case reclaim:
		return Step{Reclaim: true}
	}
	in.scheduleReclaim(now)
	return Step{}
}

// Reclaim ends the lifecycle: it stops the timers and returns the
// queued requests for the plane to drop or fail. ok is false on a
// second call (failures can race keep-alive expiry).
func (in *Instance[R]) Reclaim() (queued []R, ok bool) {
	if in.reclaimed {
		return nil, false
	}
	in.reclaimed = true
	for in.Queue.Len() > 0 {
		queued, _, _ = in.Queue.Drain(queued, in.t.Now())
	}
	in.t.Stop(IdleTimer)
	in.t.Stop(BatchTimer)
	in.t.Stop(ReadyTimer)
	return queued, true
}

// Release returns a reclaimed instance's resources to cl and, with
// tiered storage, demotes the checkpoint on its server to the policy's
// idle tier (SSD without a policy). The caller serialises access to cl.
func (in *Instance[R]) Release(cl *cluster.Cluster, now time.Duration) {
	f := in.fn
	cl.Release(in.Server, in.Cand.Res, f.Model.MemoryMB)
	if !f.Storage.Active() {
		return
	}
	if cache := cl.Server(in.Server).Artifacts(); cache != nil {
		to := artifact.TierSSD
		if f.Policy != nil {
			to = coldstart.Tiered(f.Policy).Decide(now).IdleTier
		}
		cache.Demote(f.Name, to)
	}
}

// armTimeout (re)arms the batch timer for the head batch's deadline.
func (in *Instance[R]) armTimeout(now time.Duration) {
	deadline, ok := in.Queue.Deadline()
	if !ok || in.batchArmed && in.batchAt == deadline {
		return
	}
	if deadline < now {
		deadline = now
	}
	in.batchArmed, in.batchAt = true, deadline
	in.t.Arm(BatchTimer, deadline)
}

// trySubmit is the submit decision: a ready, free instance submits a
// full or overdue head batch and otherwise waits for the deadline; a
// starting or busy instance holds.
func (in *Instance[R]) trySubmit(now time.Duration) Step {
	if !in.Ready || in.Busy || in.Queue.Len() == 0 {
		return Step{}
	}
	if deadline, _ := in.Queue.Deadline(); in.Queue.Len() < in.Cand.B && deadline > now {
		in.armTimeout(now)
		return Step{}
	}
	in.batch, _, _ = in.Queue.Drain(in.batch[:0], now)
	in.Busy = true
	in.submittedAt = now
	in.exec = in.fn.Model.ExecTime(len(in.batch), in.Cand.Res, model.DefaultExecOptions(in.rng))
	in.t.Arm(ExecTimer, now+in.exec)
	return Step{Submitted: len(in.batch), At: now, Exec: in.exec}
}

// scheduleReclaim arms the keep-alive of an idle instance.
func (in *Instance[R]) scheduleReclaim(now time.Duration) {
	in.idleAt = now + in.fn.keepAlive(now)
	in.t.Arm(IdleTimer, in.idleAt)
}
