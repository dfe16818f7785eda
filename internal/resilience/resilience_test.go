package resilience

import (
	"context"
	"testing"
	"time"
)

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBoundsAndVariance(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: true, Rand: NewRand(7)}
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		d := b.Delay(2) // unjittered: 400ms
		if d < 200*time.Millisecond || d > 400*time.Millisecond {
			t.Fatalf("jittered delay %v outside [200ms, 400ms]", d)
		}
		seen[d] = true
	}
	if len(seen) < 8 {
		t.Fatalf("jitter produced only %d distinct delays out of 64 draws", len(seen))
	}
}

func TestBackoffDeterministicWithSeed(t *testing.T) {
	a := Backoff{Base: time.Millisecond, Jitter: true, Rand: NewRand(42)}
	b := Backoff{Base: time.Millisecond, Jitter: true, Rand: NewRand(42)}
	for i := 0; i < 16; i++ {
		if da, db := a.Delay(i%4), b.Delay(i%4); da != db {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, da, db)
		}
	}
}

// TestSleepHonoursContext: Sleep returns early with the context's
// error, and a non-positive delay only reports the context's state.
func TestSleepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := Sleep(ctx, 0); err != nil {
		t.Fatalf("Sleep(live ctx, 0) = %v", err)
	}
	if err := Sleep(ctx, time.Millisecond); err != nil {
		t.Fatalf("Sleep(live ctx, 1ms) = %v", err)
	}
	cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Minute); err != context.Canceled {
		t.Fatalf("Sleep(cancelled ctx) = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep outlived its cancelled context")
	}
}
