package main

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

// evenSchedule is n due times step apart, starting at step.
func evenSchedule(n int, step time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * step
	}
	return due
}

func newTestRequest() *http.Request {
	r, err := http.NewRequest(http.MethodPost, "/function/f", nil)
	if err != nil {
		panic(err)
	}
	return r
}

// A handler that stalls once holds up every request due during the
// stall; timing from the due time charges that wait to each of them.
func TestOpenLoopStallShowsInLaterRequests(t *testing.T) {
	const (
		step  = 2 * time.Millisecond
		stall = 100 * time.Millisecond
	)
	var mu sync.Mutex
	var n int
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n == 50 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	})
	due := evenSchedule(200, step)
	out := make([]outcome, len(due))
	g := newOpenLoop(h, 256, newTestRequest, nil)
	g.Dispatch(due, out)
	g.Wait()

	stallAt := out[49].due // the 50th request's earliest start
	var held int
	for _, o := range out {
		if o.code != http.StatusOK {
			t.Fatalf("request due %v: status %d", o.due, o.code)
		}
		if o.due > stallAt && o.due < stallAt+stall {
			// Served no earlier than the stall's end.
			if want := stallAt + stall - o.due; o.latency < want {
				t.Fatalf("request due %v during the stall: latency %v, want >= %v", o.due, o.latency, want)
			}
			held++
		}
	}
	if held < 40 {
		t.Fatalf("only %d requests were due during the stall", held)
	}
	// Requests due well after the stall see it no more.
	var fast int
	for _, o := range out[170:] {
		if o.latency < 50*time.Millisecond {
			fast++
		}
	}
	if fast < 20 {
		t.Fatalf("only %d of the last 30 requests recovered from the stall", fast)
	}
}

// When the generator itself cannot keep up (here: one slot, so one
// request in flight), it records how late it sent each request, and the
// latency from the due time includes that wait.
func TestOpenLoopReportsLateness(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	})
	due := evenSchedule(20, time.Millisecond)
	out := make([]outcome, len(due))
	g := newOpenLoop(h, 1, newTestRequest, nil)
	g.Dispatch(due, out)
	g.Wait()
	last := out[len(out)-1]
	// 19 earlier requests of at least 5ms each, due 1ms apart.
	if last.late < 19*4*time.Millisecond {
		t.Fatalf("last request sent %v late, want >= 76ms", last.late)
	}
	if last.latency < last.late+5*time.Millisecond {
		t.Fatalf("latency %v does not include the %v the request waited to be sent", last.latency, last.late)
	}
}

func TestPoissonScheduleIsSeededAndInRange(t *testing.T) {
	a := poissonSchedule(newRand(9), 1000, time.Second, 3*time.Second)
	b := poissonSchedule(newRand(9), 1000, time.Second, 3*time.Second)
	if len(a) != len(b) || len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("len %d and %d, want equal and near 2000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] < time.Second || a[i] >= 3*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("schedule differs, leaves [1s, 3s) or goes back at %d: %v", i, a[i])
		}
	}
}
