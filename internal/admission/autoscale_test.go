package admission

import (
	"sync/atomic"
	"testing"
	"time"
)

type fakePool struct {
	lag     atomic.Int64
	workers int
}

func newFakeAutoscaler(p *fakePool, cfg AutoscaleConfig) *Autoscaler {
	return NewAutoscaler(p.lag.Load, func() int { return p.workers }, func(n int) { p.workers = n }, cfg)
}

func TestAutoscalerGrowsAndShrinks(t *testing.T) {
	clk := newClock()
	p := &fakePool{workers: 2}
	a := newFakeAutoscaler(p, AutoscaleConfig{
		Min: 1, Max: 4, ScaleUpLag: 100, ScaleDownLag: 10,
		Cooldown: time.Second, Now: clk.Now,
	})

	p.lag.Store(500)
	a.Tick()
	if p.workers != 3 {
		t.Fatalf("workers = %d, want 3 after scale-up", p.workers)
	}
	// Cooldown: an immediate second tick must not scale again.
	a.Tick()
	if p.workers != 3 {
		t.Fatalf("workers = %d, scaled inside cooldown", p.workers)
	}
	clk.Advance(2 * time.Second)
	a.Tick()
	if p.workers != 4 {
		t.Fatalf("workers = %d, want 4", p.workers)
	}
	// At Max: lag stays high but the pool must not grow further.
	clk.Advance(2 * time.Second)
	a.Tick()
	if p.workers != 4 {
		t.Fatalf("workers = %d, grew past Max", p.workers)
	}

	// Backlog drained: shrink one worker per cooldown down to Min.
	p.lag.Store(0)
	for i := 0; i < 10; i++ {
		clk.Advance(2 * time.Second)
		a.Tick()
	}
	if p.workers != 1 {
		t.Fatalf("workers = %d, want Min=1 after drain", p.workers)
	}
	if a.ScaleUps.Value() != 2 || a.ScaleDowns.Value() != 3 {
		t.Errorf("scale ops = %d up / %d down, want 2 / 3", a.ScaleUps.Value(), a.ScaleDowns.Value())
	}
	if a.LastLag.Value() != 0 {
		t.Errorf("LastLag = %d, want 0", a.LastLag.Value())
	}
}

func TestAutoscalerDeadBand(t *testing.T) {
	clk := newClock()
	p := &fakePool{workers: 2}
	a := newFakeAutoscaler(p, AutoscaleConfig{
		Min: 1, Max: 4, ScaleUpLag: 100, ScaleDownLag: 10, Now: clk.Now,
	})
	// Lag between the thresholds: steady state, no flapping.
	p.lag.Store(50)
	for i := 0; i < 10; i++ {
		clk.Advance(10 * time.Second)
		a.Tick()
	}
	if p.workers != 2 {
		t.Fatalf("workers = %d, want 2 (dead band must hold)", p.workers)
	}
}

func TestAutoscalerStartStop(t *testing.T) {
	p := &fakePool{workers: 1}
	p.lag.Store(1000)
	a := newFakeAutoscaler(p, AutoscaleConfig{
		Min: 1, Max: 2, ScaleUpLag: 100,
		Interval: time.Millisecond, Cooldown: time.Millisecond,
	})
	a.Start()
	deadline := time.Now().Add(2 * time.Second)
	for a.ScaleUps.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	if a.ScaleUps.Value() == 0 {
		t.Fatal("background autoscaler never scaled")
	}
	a.Stop() // idempotent
}
