package main

import (
	"testing"

	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/profiler"
	"github.com/tanklab/infless/internal/scheduler"
)

func testPlans(t *testing.T, workers int) []*scheduler.Plan {
	t.Helper()
	pred := scheduler.NewPredictorCache(profiler.NewPredictor(profiler.NewDB(profiler.DefaultDBOptions())))
	return schedPlans(pred, workers)
}

// The loop fills to the high watermark, drains to the low one, and
// repeats; placements and releases keep the books balanced.
func TestChurnLoopWatermarks(t *testing.T) {
	const low, high = 0.30, 0.40
	cl := cluster.New(cluster.Options{Servers: 400, Shards: 4})
	loop := newChurnLoop(cl, testPlans(t, 2), 7, low, high)
	loop.prefill()
	if s := loop.share(); s < low {
		t.Fatalf("share after prefill = %v, want >= %v", s, low)
	}
	// The most one operation can move the share.
	var step float64
	for _, p := range loop.plans {
		for _, b := range p.BatchSizes() {
			for _, c := range p.Candidates(b) {
				if w := c.Res.Weighted() / loop.capW; w > step {
					step = w
				}
			}
		}
	}
	var fills, drains int
	wasDraining := loop.draining
	for i := 0; i < 20000; i++ {
		before := loop.share()
		release, _ := loop.step()
		after := loop.share()
		if release != loop.draining {
			t.Fatalf("op %d: release=%v while draining=%v", i, release, loop.draining)
		}
		if release && before < low {
			t.Fatalf("op %d released at share %v, below the low watermark", i, before)
		}
		if !release && before >= high {
			t.Fatalf("op %d placed at share %v, at or above the high watermark", i, before)
		}
		if after < low-step-1e-9 || after > high+step+1e-9 {
			t.Fatalf("op %d left share %v outside [%v, %v] ± %v", i, after, low, high, step)
		}
		if loop.draining != wasDraining {
			if loop.draining {
				drains++
			} else {
				fills++
			}
			wasDraining = loop.draining
		}
	}
	if fills < 3 || drains < 3 {
		t.Fatalf("%d fill and %d drain phases in 20000 operations; want several of each", fills, drains)
	}
	if loop.refused != 0 {
		t.Fatalf("%d Schedule calls placed nothing below the watermark", loop.refused)
	}
	if got := int64(len(loop.live)); got != loop.placed-loop.released {
		t.Fatalf("live %d != placed %d - released %d", got, loop.placed, loop.released)
	}
	// Releasing every live instance returns the cluster to empty.
	for _, in := range loop.live {
		cl.Release(in.server, in.res, in.memMB)
	}
	if a := cl.TotalAllocated(); !a.IsZero() || cl.ActiveServers() != 0 {
		t.Fatalf("after releasing everything: allocated %v, %d active servers", a, cl.ActiveServers())
	}
}

// The same seed makes the same decisions whatever the sharding and fit
// fan-out, the property sched-100k's reference replay checks.
func TestChurnLoopDecisionsIndependentOfSharding(t *testing.T) {
	run := func(shards, workers int, seed int64) uint64 {
		cl := cluster.New(cluster.Options{Servers: 300, Shards: shards})
		loop := newChurnLoop(cl, testPlans(t, workers), seed, 0.2, 0.3)
		loop.prefill()
		for i := 0; i < 3000; i++ {
			loop.step()
		}
		return loop.digest
	}
	ref := run(1, 1, 3)
	if got := run(4, 2, 3); got != ref {
		t.Fatalf("4 shards, 2 workers: digest %x, want %x", got, ref)
	}
	if got := run(1, 1, 4); got == ref {
		t.Fatal("another seed made the same decisions; the digest does not see the loop")
	}
}
