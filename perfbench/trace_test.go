package main

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/core"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/sim"
	"github.com/tanklab/infless/internal/workload"
)

// The wrappers keep the optional interfaces the engine looks for.
var (
	_ sim.Admitter         = (*tracedController)(nil)
	_ coldstart.TierPolicy = (*tracedLSTH)(nil)
)

func newSimTracer() *simTracer {
	return &simTracer{spans: &spanClock{}, preds: newTracedPredictors(), obs: newLayerObserver()}
}

// A traced run reproduces the untraced run's outputs exactly, on a
// steady and a churning workload (the latter through tiered storage,
// where the engine asks the policy for coldstart.TierPolicy decisions).
func TestTracedRunsMatchUntraced(t *testing.T) {
	steady := simSteady
	steady.duration, steady.warmup = 6*time.Second, 2*time.Second
	churn := simChurn
	churn.duration = 4 * time.Minute
	for name, w := range map[string]simWorkload{"steady": steady, "churn": churn} {
		plain, err := w.setupAndRun(5, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newSimTracer()
		traced, err := w.setupAndRun(5, nil, tr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if traced.out != plain.out {
			t.Errorf("%s: traced outputs %+v, untraced %+v", name, traced.out, plain.out)
		}
		if tr.ctrl.routeCalls == 0 || tr.ctrl.tickCalls == 0 || tr.preds.outer.calls.Load() == 0 {
			t.Errorf("%s: wrappers saw no calls: %+v", name, tr.ctrl)
		}
		if tr.obs.unresolved != 0 || len(tr.obs.shapes) == 0 {
			t.Errorf("%s: %d batches without a recorded shape, %d shapes", name, tr.obs.unresolved, len(tr.obs.shapes))
		}
	}
}

// interfaceController holds the controller as a plain sim.Controller,
// the wrapper shape the tracing must avoid.
type interfaceController struct{ sim.Controller }

// The check above has teeth: a wrapper that hides sim.Admitter changes
// the outputs of an overloaded run, where SLO-aware admission rejects
// requests that would miss.
func TestHidingAdmitterChangesOutputs(t *testing.T) {
	run := func(ctrl sim.Controller) simOutputs {
		dur := 6 * time.Second
		e := sim.New(ctrl, sim.Config{Cluster: cluster.Testbed(), Seed: 3, Duration: dur})
		for _, m := range []string{"SSD", "MobileNet", "ResNet-50"} {
			e.AddFunction(sim.FunctionSpec{Name: m, Model: model.MustGet(m), SLO: 200 * time.Millisecond,
				Trace: workload.Constant(30000, dur, time.Minute)})
		}
		return outputsOf(e.Run())
	}
	native := run(newTracedController(core.New(core.Options{}), &spanClock{}))
	hidden := run(interfaceController{core.New(core.Options{})})
	if native == hidden {
		t.Fatalf("hiding sim.Admitter left the outputs unchanged: %+v", native)
	}
	if direct := run(core.New(core.Options{})); direct != native {
		t.Fatalf("embedding wrapper %+v differs from the bare controller %+v", native, direct)
	}
}
