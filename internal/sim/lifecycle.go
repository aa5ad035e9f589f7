package sim

// lifecycle.go is the request lifecycle: arrival → routing → the
// shared runtime.Instance machine → completion, plus backlog expiry and
// chain forwarding. Policy decisions (batch timeout, SLO-aware admission
// projection) come from the shared internal/runtime layer; metric
// recording flows through the engine's lifecycle observers.

import (
	"time"

	"github.com/tanklab/infless/internal/metrics"
)

func (e *Engine) onArrival(f *FunctionState) {
	now := e.clock.Now()
	req := &Request{Arrive: now, ChainStart: now}
	e.inject(f, req)
}

// inject delivers a request (external arrival or chain forward) to f.
func (e *Engine) inject(f *FunctionState, req *Request) {
	now := e.clock.Now()
	f.rate.Observe(now)
	e.rates.PlaneObserve(now)
	e.obs.RequestArrived(f.Spec.Name, now)
	if f.haveArrival && f.Policy != nil {
		f.Policy.RecordIdle(now-f.lastArrival, now)
	}
	f.lastArrival = now
	f.haveArrival = true

	inst := e.ctrl.Route(e, f, req)
	if inst == nil {
		if rej, ok := e.ctrl.(Rejector); ok && rej.RejectOnSaturation() {
			e.dropRequest(f)
			return
		}
		f.Pending = append(f.Pending, req)
		return
	}
	e.Enqueue(inst, req)
}

// dropRequest publishes a drop; the metrics observer charges the
// function's recorder and, for chained functions, the chain tail's
// end-to-end recorder (the user never got an answer, wherever along the
// pipeline the request died).
func (e *Engine) dropRequest(f *FunctionState) {
	e.obs.RequestDropped(f.Spec.Name, e.clock.Now())
}

// expirePending drops backlog requests that already blew their SLO: the
// caller would have timed out.
func (e *Engine) expirePending(f *FunctionState) {
	now := e.clock.Now()
	keep := f.Pending[:0]
	for _, r := range f.Pending {
		if now-r.Arrive > f.Spec.SLO {
			e.dropRequest(f)
			continue
		}
		keep = append(keep, r)
	}
	f.Pending = keep
}

// Enqueue offers a request to an instance's batch queue: SLO-aware
// admission first (when the controller asks for it), then the shared
// runtime lifecycle; a request the queue refuses is dropped.
func (e *Engine) Enqueue(inst *Instance, req *Request) {
	now := e.clock.Now()
	if a, ok := e.ctrl.(Admitter); ok && a.SLOAwareAdmission() {
		// Projected completion: batches queued ahead of this request plus
		// the batch in flight, each costing the predicted execution time.
		var coldWait time.Duration
		if !inst.Ready && inst.ReadyAt > now {
			coldWait = inst.ReadyAt - now
		}
		if inst.Fn.Batch.ProjectedViolation(inst.Queue.Len(), inst.Cand.B, inst.Busy,
			inst.Cand.TExec, now-req.Arrive, coldWait) {
			e.dropRequest(inst.Fn)
			return
		}
	}
	accepted, s := inst.Instance.Enqueue(req)
	if !accepted {
		e.dropRequest(inst.Fn)
		return
	}
	e.obs.RequestEnqueued(inst.Fn.Spec.Name, inst.ID, now)
	e.publish(inst, s)
}

func (e *Engine) onBatchComplete(inst *Instance) {
	f := inst.Fn
	batch, submittedAt, exec := inst.InFlight()
	if inst.lostAt > 0 && inst.lostAt >= submittedAt {
		// The server failed while this batch was executing: the work is
		// lost and its requests count as drops.
		for range batch {
			e.dropRequest(f)
		}
		return
	}
	var otpDelay time.Duration
	if d, ok := e.ctrl.(DispatchDelayer); ok {
		otpDelay = d.DispatchDelay()
	}
	inWarmup := e.clock.Now() < e.cfg.Warmup
	for _, req := range batch {
		s := inst.Served(req.Arrive)
		s.Queue += otpDelay
		e.obs.RequestServed(f.Spec.Name, s, e.clock.Now())
		switch {
		case f.forwardTo != nil:
			// Chain hop: the request continues at the next stage with its
			// original chain start preserved.
			e.inject(f.forwardTo, &Request{Arrive: e.clock.Now(), ChainStart: req.ChainStart})
		case f.ChainRecorder != nil && !inWarmup:
			// Chain tail: account the end-to-end latency as pure queueing
			// plus this stage's execution (the decomposition upstream is
			// already recorded per stage).
			total := e.clock.Now() - req.ChainStart
			f.ChainRecorder.Observe(metrics.Sample{Queue: total - exec, Exec: exec})
		}
	}
	inst.Finish()
	// Capacity just freed: re-offer any backlog immediately (sub-second
	// SLOs cannot wait for the next autoscaler tick — chain stages in
	// particular receive whole upstream batches at one instant).
	if len(f.Pending) > 0 {
		e.FlushPending(f)
	}
	e.publish(inst, inst.Continue())
}

// FlushPending re-offers backlog requests to the controller, typically
// right after a scale-out or a freed execution slot. Requests whose SLO
// already expired are dropped first — the client has timed out, so
// serving them would only burn capacity on a guaranteed violation.
func (e *Engine) FlushPending(f *FunctionState) {
	if len(f.Pending) == 0 {
		return
	}
	e.expirePending(f)
	pending := f.Pending
	f.Pending = nil
	for i, r := range pending {
		inst := e.ctrl.Route(e, f, r)
		if inst == nil {
			f.Pending = append(f.Pending, pending[i:]...)
			break
		}
		e.Enqueue(inst, r)
	}
}
