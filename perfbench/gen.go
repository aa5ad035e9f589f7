package main

// gen.go is gw-open's open-loop load generator. It calls the handler's
// ServeHTTP in-process (no TCP), one goroutine per request, at due times
// drawn in advance from a seeded Poisson process, and times each request
// from its due time, so a stall in the program shows in the latency of
// every request due during it. It also reports how late it sent each
// request, which tells whether a run measured the program or the
// generator.
//
// internal/loadgen is not reused: its workers stamp a request's start
// when they dequeue it, and its open-loop pacer blocks on an unbuffered
// channel while every worker is busy, so its open-loop latencies leave
// out the time requests queue inside the generator.

import (
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// poissonSchedule draws arrival offsets of a Poisson process at rate per
// second over [from, to).
func poissonSchedule(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	out := make([]time.Duration, 0, int(rate*(to-from).Seconds()*1.1)+16)
	at := from
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= to {
			return out
		}
		out = append(out, at)
	}
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *recorder) reset() {
	clear(w.hdr)
	w.code = 0
	w.body = w.body[:0]
}

// slot is one pre-built request with its writer; a slot serves one
// request at a time.
type slot struct {
	req *http.Request
	w   recorder
}

// outcome is what the generator records for one request.
type outcome struct {
	due, late, latency time.Duration
	code               int
}

// openLoop sends requests to one handler. Dispatch may be called several
// times (warm-up in chunks, then the measured window); Wait joins every
// request sent so far.
type openLoop struct {
	h     http.Handler
	start time.Time // due times are offsets from start
	// free holds the idle slots; its capacity is the most requests in
	// flight at once, sized far above the load's concurrency so a
	// sender never waits for a slot.
	free chan *slot
	wg   sync.WaitGroup
	// check inspects each response body; it runs on the request's
	// goroutine, so it must be safe for concurrent use.
	check func(code int, body []byte)
}

func newOpenLoop(h http.Handler, slots int, newReq func() *http.Request, check func(int, []byte)) *openLoop {
	g := &openLoop{h: h, free: make(chan *slot, slots), check: check}
	for i := 0; i < slots; i++ {
		g.free <- &slot{req: newReq(), w: recorder{hdr: make(http.Header, 4), body: make([]byte, 0, 256)}}
	}
	g.start = time.Now()
	return g
}

// Dispatch sends one request per due time into out (out[i] for due[i])
// and returns once the last is sent; the requests complete on their
// own goroutines, so the next Dispatch continues the schedule.
func (g *openLoop) Dispatch(due []time.Duration, out []outcome) {
	for i, d := range due {
		if wait := time.Until(g.start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		s := <-g.free
		sent := time.Since(g.start)
		out[i] = outcome{due: d, late: sent - d}
		g.wg.Add(1)
		go g.send(s, &out[i])
	}
}

func (g *openLoop) send(s *slot, o *outcome) {
	defer g.wg.Done()
	s.w.reset()
	g.h.ServeHTTP(&s.w, s.req)
	o.latency = time.Since(g.start) - o.due
	o.code = s.w.code
	if g.check != nil {
		g.check(s.w.code, s.w.body)
	}
	g.free <- s
}

// Wait blocks until every request dispatched so far has completed.
func (g *openLoop) Wait() { g.wg.Wait() }
