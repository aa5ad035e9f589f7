package gateway

// lifecycle_test.go pins what the gateway gets from driving the shared
// runtime.Instance machine: served samples decomposed in plane time, so
// a batch wait survives any speed factor, and the reclaim bookkeeping
// that parks a departing function's checkpoint back at its idle tier.

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/core"
)

// TestQueueSampleSurvivesSpeedFactor drives a batching function at a
// non-saturating rate on a 500x gateway. A batch wait of tens of model
// milliseconds is well under a millisecond of wall time there; the
// queue component must still reach telemetry in model time instead of
// being clamped away.
func TestQueueSampleSurvivesSpeedFactor(t *testing.T) {
	const (
		rps      = 40.0
		speed    = 500.0
		modelDur = 15 * time.Second
	)
	gw := New(Config{SpeedFactor: speed, IdleTimeout: time.Minute, Seed: 1})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "mnist", ModelName: "MNIST", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	f, _ := gw.tbl.lookup("mnist")

	total := int(rps * modelDur.Seconds())
	interval := time.Duration(float64(time.Second) / (rps * speed))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = f.invoke(context.Background())
		}()
	}
	wg.Wait()

	snap := gw.Telemetry().SnapshotAt(gw.PlaneNow())
	if len(snap.Functions) != 1 {
		t.Fatalf("%d functions in telemetry", len(snap.Functions))
	}
	fs := snap.Functions[0]
	t.Logf("served=%d meanBatch=%.2f meanQueue=%.2fms queueP50=%.2fms", fs.Served, fs.MeanBatch, fs.MeanQueueMs, fs.QueueP50Ms)
	if fs.MeanBatch <= 1 {
		t.Fatalf("mean batch %.2f: the load never formed batches", fs.MeanBatch)
	}
	// The median request waits for its batch to fill or time out; only
	// the request that completes a batch waits for nothing.
	if fs.QueueP50Ms < 1 {
		t.Errorf("median queue component %.3fms at speed %v: batch waits were clamped away", fs.QueueP50Ms, speed)
	}
}

// TestIdleReclaimDemotesArtifact: a launch promotes the checkpoint to
// DRAM on its server; reclaiming the idle instance must park it back at
// the idle tier (SSD for a function without a cold-start policy).
func TestIdleReclaimDemotesArtifact(t *testing.T) {
	st := artifact.DefaultConfig()
	gw := New(Config{SpeedFactor: 500, IdleTimeout: 100 * time.Millisecond, Seed: 1, Storage: &st})
	defer gw.Close()
	if err := gw.deploy(core.RegistryEntry{Name: "f", ModelName: "MNIST", SLO: 500 * time.Millisecond}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	f, _ := gw.tbl.lookup("f")
	res, err := f.invoke(context.Background())
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}

	tiers := func() map[int]artifact.Tier {
		gw.clMu.Lock()
		defer gw.clMu.Unlock()
		out := map[int]artifact.Tier{}
		for _, s := range gw.cfg.Cluster.Servers() {
			out[s.ID] = s.Artifacts().Tier("f")
		}
		return out
	}
	promoted := -1
	for id, tier := range tiers() {
		if tier == artifact.TierDRAM {
			promoted = id
		}
	}
	if promoted < 0 {
		t.Fatalf("launch of instance %d promoted no checkpoint to DRAM: %v", res.Instance, tiers())
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		if cpu, gpu := gw.AllocatedResources(); cpu == 0 && gpu == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance never reclaimed after the idle timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tier := tiers()[promoted]; tier != artifact.TierSSD {
		t.Errorf("server %d keeps the reclaimed function's checkpoint at %v, want %v", promoted, tier, artifact.TierSSD)
	}
}
