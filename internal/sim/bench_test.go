package sim

// bench_test.go micro-benchmarks the engine's request hot path: Enqueue
// (queue add + admission + timeout arming) and the full
// enqueue-until-full → trySubmit batch drain. These are the per-request
// costs that bound how many simulated requests a study can afford.

import (
	"testing"
	"time"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
)

func benchEngine(b *testing.B, batch int, admit bool) (*Engine, *Instance) {
	b.Helper()
	ctrl := &manualController{
		cand:  testCand(batch, perf.Resources{CPU: 2}, 20*time.Millisecond, 500*time.Millisecond),
		admit: admit,
	}
	e := New(ctrl, Config{Cluster: cluster.Testbed(), Duration: time.Hour, Seed: 1})
	f := e.AddFunction(FunctionSpec{Name: "f", Model: model.MustGet("MNIST"), SLO: 500 * time.Millisecond})
	ctrl.Init(e)
	inst := f.Instances()[0]
	inst.Ready = true // events only fire inside Run; force warm by hand
	return e, inst
}

// BenchmarkEngineEnqueue measures the queue-add path alone: a batch size
// far above the offered load, so trySubmit never fires.
func BenchmarkEngineEnqueue(b *testing.B) {
	e, inst := benchEngine(b, 32, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Enqueue(inst, &Request{Arrive: e.Now()})
		if inst.Queue.Len() >= 31 {
			// Stay below the full-batch trigger; drain cheaply by hand.
			b.StopTimer()
			inst.Queue.Drain(nil, e.Now())
			b.StartTimer()
		}
	}
}

// BenchmarkEngineEnqueueSubmit measures the full request path amortized:
// every B-th Enqueue fills the batch and triggers trySubmit's drain and
// completion scheduling (the instance is marked free again so each batch
// actually submits).
func BenchmarkEngineEnqueueSubmit(b *testing.B) {
	e, inst := benchEngine(b, 8, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Enqueue(inst, &Request{Arrive: e.Now()})
		inst.Busy = false // completion events never fire outside Run
	}
}

// BenchmarkEngineEnqueueAdmission is Enqueue with the SLO-aware
// admission projection enabled (INFless native mode).
func BenchmarkEngineEnqueueAdmission(b *testing.B) {
	e, inst := benchEngine(b, 8, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Enqueue(inst, &Request{Arrive: e.Now()})
		inst.Busy = false
	}
}
