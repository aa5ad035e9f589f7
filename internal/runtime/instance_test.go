package runtime

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/coldstart"
	"github.com/tanklab/infless/internal/metrics"
	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/perf"
	"github.com/tanklab/infless/internal/scheduler"
)

// fakeTimers is a hand-advanced clock that records what the machine
// arms; the test fires the transitions itself.
type fakeTimers struct {
	now   time.Duration
	armed [ExecTimer + 1]bool
	at    [ExecTimer + 1]time.Duration // plane time each timer fires
	execs int
}

func (f *fakeTimers) Now() time.Duration { return f.now }

func (f *fakeTimers) Arm(k Timer, at time.Duration) {
	f.armed[k], f.at[k] = true, at
	if k == ExecTimer {
		f.execs++
	}
}

func (f *fakeTimers) Stop(k Timer) { f.armed[k] = false }

const (
	testSLO   = 200 * time.Millisecond
	testTExec = 20 * time.Millisecond
	testReady = 100 * time.Millisecond
)

// newTestInstance builds a B=4 instance ready at testReady whose batch
// timeout is SLO - TExec = 180ms.
func newTestInstance() (*Instance[int], *fakeTimers) {
	ft := &fakeTimers{}
	fn := &Function{
		Name:   "f",
		Model:  model.MustGet("MNIST"),
		Batch:  BatchPolicy{SLO: testSLO},
		Policy: coldstart.Fixed{KeepAlive: time.Minute},
	}
	cand := scheduler.Candidate{B: 4, Res: perf.Resources{CPU: 2}, TExec: testTExec}
	in := NewInstance[int](fn, 1, cand, 0, testReady, rand.New(rand.NewSource(1)), ft)
	return &in, ft
}

func mustEnqueue(t *testing.T, in *Instance[int], n int) Step {
	t.Helper()
	var last Step
	for i := 0; i < n; i++ {
		ok, s := in.Enqueue(i)
		if !ok {
			t.Fatalf("enqueue %d refused", i)
		}
		if s.Submitted > 0 {
			last = s
		}
	}
	return last
}

func TestInstanceLifecycle(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, in *Instance[int], ft *fakeTimers)
	}{
		{"full batch submits immediately", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			ft.now = testReady
			in.Fire(ReadyTimer)
			s := mustEnqueue(t, in, 4)
			if s.Submitted != 4 || s.Exec <= 0 || !in.Busy || ft.execs != 1 {
				t.Fatalf("step %+v busy %v execs %d, want a batch of 4 executing", s, in.Busy, ft.execs)
			}
			if batch, at, _ := in.InFlight(); len(batch) != 4 || at != testReady {
				t.Fatalf("in flight: %d requests submitted at %v", len(batch), at)
			}
		}},
		{"partial batch submits at the head's deadline", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			ft.now = testReady
			in.Fire(ReadyTimer)
			if s := mustEnqueue(t, in, 2); s.Submitted != 0 {
				t.Fatalf("partial batch submitted early: %+v", s)
			}
			if want := testReady + testSLO - testTExec; !ft.armed[BatchTimer] || ft.at[BatchTimer] != want {
				t.Fatalf("batch timer armed %v at %v, want %v", ft.armed[BatchTimer], ft.at[BatchTimer], want)
			}
			ft.now = ft.at[BatchTimer] - time.Millisecond
			if s := in.Fire(BatchTimer); s.Submitted != 0 || !ft.armed[BatchTimer] {
				t.Fatalf("early fire submitted %+v or did not re-arm", s)
			}
			ft.now = ft.at[BatchTimer]
			if s := in.Fire(BatchTimer); s.Submitted != 2 {
				t.Fatalf("deadline fire: %+v, want a batch of 2", s)
			}
			if got := in.Served(testReady); got.Cold != 0 || got.Queue != testSLO-testTExec {
				t.Fatalf("served sample %+v, want the 180ms batch wait as queue", got)
			}
		}},
		{"not-ready instance holds until ready", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			in.Start()
			if !ft.armed[ReadyTimer] || ft.at[ReadyTimer] != testReady {
				t.Fatalf("startup timer armed %v for %v, want %v", ft.armed[ReadyTimer], ft.at[ReadyTimer], testReady)
			}
			if s := mustEnqueue(t, in, 4); s.Submitted != 0 || in.Busy {
				t.Fatalf("starting instance submitted %+v", s)
			}
			ft.now = testReady
			if s := in.Fire(ReadyTimer); s.Submitted != 4 {
				t.Fatalf("ready: %+v, want the held batch of 4", s)
			}
		}},
		{"completion with a backlog resubmits", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			ft.now = testReady
			in.Fire(ReadyTimer)
			mustEnqueue(t, in, 4)
			if s := mustEnqueue(t, in, 4); s.Submitted != 0 {
				t.Fatalf("busy instance submitted %+v", s)
			}
			in.Finish()
			if s := in.Continue(); s.Submitted != 4 || ft.armed[IdleTimer] {
				t.Fatalf("continue: %+v (keep-alive armed %v), want the full backlog resubmitted", s, ft.armed[IdleTimer])
			}
		}},
		{"idle instance keeps alive, then is reclaimed", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			ft.now = testReady
			in.Fire(ReadyTimer)
			if !ft.armed[IdleTimer] || ft.at[IdleTimer] != testReady+time.Minute {
				t.Fatalf("keep-alive armed %v until %v, want 1m after ready", ft.armed[IdleTimer], ft.at[IdleTimer])
			}
			mustEnqueue(t, in, 1)
			if ft.armed[IdleTimer] {
				t.Fatal("an enqueue must stop the keep-alive")
			}
			if in.Fire(IdleTimer).Reclaim {
				t.Fatal("instance with a queued request reclaimed")
			}
		}},
		{"stale keep-alive fire after a re-arm is ignored", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			ft.now = testReady
			in.Fire(ReadyTimer)
			stale := ft.at[IdleTimer]
			mustEnqueue(t, in, 4)
			ft.now = testReady + 10*time.Second
			in.Finish()
			in.Continue()
			if !ft.armed[IdleTimer] || ft.at[IdleTimer] != ft.now+time.Minute {
				t.Fatalf("keep-alive armed %v until %v, want re-armed 1m after the batch", ft.armed[IdleTimer], ft.at[IdleTimer])
			}
			ft.now = stale
			if in.Fire(IdleTimer).Reclaim {
				t.Fatal("the first keep-alive's late fire reclaimed a re-armed instance")
			}
			ft.now = ft.at[IdleTimer]
			if !in.Fire(IdleTimer).Reclaim {
				t.Fatal("idle instance not reclaimed at its keep-alive expiry")
			}
		}},
		{"draining instance is reclaimed once empty", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			ft.now = testReady
			in.Fire(ReadyTimer)
			mustEnqueue(t, in, 4)
			if in.Retire().Reclaim {
				t.Fatal("busy instance reclaimed at retire")
			}
			in.Finish()
			if s := in.Continue(); !s.Reclaim {
				t.Fatalf("draining instance not reclaimed once empty: %+v", s)
			}
			if _, ok := in.Reclaim(); !ok {
				t.Fatal("first reclaim refused")
			}
			if _, ok := in.Reclaim(); ok {
				t.Fatal("second reclaim ran the bookkeeping again")
			}
			if ok, _ := in.Enqueue(9); ok {
				t.Fatal("reclaimed instance accepted a request")
			}
		}},
		{"queue drops at the 2B bound", func(t *testing.T, in *Instance[int], ft *fakeTimers) {
			mustEnqueue(t, in, 8)
			if ok, _ := in.Enqueue(8); ok {
				t.Fatal("ninth request accepted by a B=4 queue")
			}
			queued, ok := in.Reclaim()
			if !ok || len(queued) != 8 || ft.armed[BatchTimer] || ft.armed[IdleTimer] {
				t.Fatalf("reclaim returned %d queued (ok %v), timers batch %v idle %v", len(queued), ok, ft.armed[BatchTimer], ft.armed[IdleTimer])
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, ft := newTestInstance()
			tc.run(t, in, ft)
		})
	}
}

func TestServedDecomposition(t *testing.T) {
	const exec = 20 * time.Millisecond
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name                  string
		arrive, ready, submit time.Duration
		want                  metrics.Sample
	}{
		{"arrived while starting", ms(10), ms(100), ms(130), metrics.Sample{Cold: ms(90), Queue: ms(30), Exec: exec}},
		{"arrived warm", ms(150), ms(100), ms(190), metrics.Sample{Queue: ms(40), Exec: exec}},
		{"negative queue clamps to zero", ms(10), ms(100), ms(90), metrics.Sample{Cold: ms(90), Exec: exec}},
	}
	for _, tc := range cases {
		in := Instance[int]{ReadyAt: tc.ready, submittedAt: tc.submit, exec: exec}
		if got := in.Served(tc.arrive); got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
