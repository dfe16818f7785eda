package clock

import (
	"sync"
	"testing"
	"time"
)

func TestManualNowAndAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatal("Now must return the start instant")
	}
	m.Advance(3 * time.Second)
	if got := m.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("Now after Advance = %v", got)
	}
}

func TestManualSleepWakesAfterAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		m.Sleep(5 * time.Second)
		close(done)
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // let the sleeper compute its deadline
	// Not enough time: the sleeper must stay blocked.
	m.Advance(2 * time.Second)
	select {
	case <-done:
		t.Fatal("Sleep returned before its deadline")
	case <-time.After(10 * time.Millisecond):
	}
	m.Advance(4 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after the clock passed its deadline")
	}
}

func TestManualSleepManyWaiters(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			m.Sleep(d)
		}(time.Duration(i) * time.Second)
	}
	go func() {
		for i := 0; i < 10; i++ {
			time.Sleep(time.Millisecond)
			m.Advance(time.Second)
		}
	}()
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("sleepers never all woke")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	b := NewTokenBucket(0, 0, nil)
	start := time.Now()
	b.Take(1e9)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("unlimited bucket must not block")
	}
	if ok, wait := b.TryTake(1e9); !ok || wait != 0 {
		t.Fatal("unlimited TryTake must succeed")
	}
}

func TestTokenBucketTryTake(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	b := NewTokenBucket(10, 5, m)
	if ok, wait := b.TryTake(5); !ok || wait != 0 {
		t.Fatal("initial burst must be available")
	}
	// Empty at 10 tokens/s: the next token is 100ms away, and the hint
	// is exact — one tick short of it still refuses, the tick admits.
	ok, wait := b.TryTake(1)
	if ok || wait != 100*time.Millisecond {
		t.Fatalf("empty bucket: ok=%v wait=%v, want refused with 100ms", ok, wait)
	}
	m.Advance(wait - time.Millisecond)
	if ok, wait := b.TryTake(1); ok || wait <= 0 || wait > 2*time.Millisecond {
		t.Fatalf("1ms early: ok=%v wait=%v, want refused with ~1ms", ok, wait)
	}
	m.Advance(time.Millisecond)
	if ok, _ := b.TryTake(1); !ok {
		t.Fatal("token due after the hinted wait")
	}
	m.Advance(time.Second) // refills 10, clamped to burst 5
	if ok, _ := b.TryTake(5); !ok {
		t.Fatal("bucket should have refilled to burst")
	}
	if ok, wait := b.TryTake(0.5); ok || wait != 50*time.Millisecond {
		t.Fatalf("empty again: ok=%v wait=%v, want refused with 50ms", ok, wait)
	}
}

func TestTokenBucketBurstClamp(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	b := NewTokenBucket(1000, 10, m)
	m.Advance(time.Hour)
	if ok, _ := b.TryTake(10); !ok {
		t.Fatal("burst tokens must be available")
	}
	if ok, _ := b.TryTake(1); ok {
		t.Fatal("refill must be clamped to burst capacity")
	}
}

func TestTokenBucketTakeBlocksAtRate(t *testing.T) {
	// Real-clock test with a generous tolerance: taking 3x the burst at
	// 1000 tokens/s should block roughly (3-1)*burst/rate seconds.
	b := NewTokenBucket(1000, 100, nil)
	start := time.Now()
	b.Take(100) // burst, immediate
	b.Take(200) // needs ~200ms of refill
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Fatalf("Take returned too quickly (%v); rate limit not applied", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Take blocked far too long (%v)", elapsed)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	b := NewTokenBucket(1, 1, NewManual(time.Unix(0, 0)))
	b.SetRate(0)
	if b.Rate() != 0 {
		t.Fatal("SetRate must update the rate")
	}
	start := time.Now()
	b.Take(1e6)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("disabled bucket must not block")
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = Real{}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if !c.Now().After(t0) {
		t.Fatal("real clock must advance")
	}
}
