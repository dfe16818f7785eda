package mllib

import (
	"fmt"
	"testing"
)

// feed pushes one synthetic observation stream through d a row at a
// time and returns the step index of the first flag, or -1.
func feedUntilFlag(t *testing.T, d Detector, gen func(step int) []float64, steps int) int {
	t.Helper()
	var det Detections
	for i := 0; i < steps; i++ {
		row := gen(i)
		if err := d.DetectBatchInto([][]float64{row}, []int64{int64(i)}, &det); err != nil {
			t.Fatal(err)
		}
		if len(det.Flags) > 0 {
			return i
		}
	}
	return -1
}

// noise is a deterministic pseudo-noise wave: zero-mean, bounded,
// enough variance for a finite baseline sigma.
func noise(step, sensor int) float64 {
	// One splitmix64 draw keyed by (step, sensor).
	z := (uint64(step)<<16 | uint64(sensor)) ^ 0x9E3779B97F4A7C15
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53)*2 - 1
}

func TestCUSUMFlagsSustainedShift(t *testing.T) {
	c, err := NewCUSUM(4, 0.5, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	const shiftAt = 60
	first := feedUntilFlag(t, c, func(step int) []float64 {
		row := make([]float64, 4)
		for s := range row {
			row[s] = noise(step, s)
			if step >= shiftAt && s == 2 {
				row[s] += 3 // a 3σ-scale sustained shift on one channel
			}
		}
		return row
	}, 200)
	if first < shiftAt {
		t.Fatalf("flagged at %d, before the shift at %d", first, shiftAt)
	}
	if first < 0 || first > shiftAt+20 {
		t.Fatalf("sustained shift flagged at %d, want within 20 steps of %d", first, shiftAt)
	}
}

// TestCUSUMDriftSensitivity is the drift property: a steeper drift
// must be detected no later than a shallower one.
func TestCUSUMDriftSensitivity(t *testing.T) {
	const onset = 50
	detectAt := func(slope float64) int {
		c, err := NewCUSUM(3, 0.5, 5, 40)
		if err != nil {
			t.Fatal(err)
		}
		return feedUntilFlag(t, c, func(step int) []float64 {
			row := make([]float64, 3)
			for s := range row {
				row[s] = noise(step, s)
			}
			if step >= onset {
				row[1] += slope * float64(step-onset)
			}
			return row
		}, 600)
	}
	prev := -1
	slopes := []float64{0.01, 0.05, 0.2, 1.0}
	for i, slope := range slopes {
		at := detectAt(slope)
		if at < 0 {
			t.Fatalf("drift slope %v never flagged", slope)
		}
		if at < onset {
			t.Fatalf("drift slope %v flagged at %d, before onset %d", slope, at, onset)
		}
		if i > 0 && at > prev {
			t.Fatalf("steeper drift %v detected later (%d) than %v (%d)",
				slope, at, slopes[i-1], prev)
		}
		prev = at
	}
}

// TestCUSUMReset: Reset clears the accumulated sums (no stale alarm
// right after restart) but keeps the learned baseline (a genuinely
// shifted stream still alarms promptly).
func TestCUSUMReset(t *testing.T) {
	c, err := NewCUSUM(2, 0.5, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	var det Detections
	row := make([]float64, 2)
	step := 0
	push := func(shift float64) int {
		for s := range row {
			row[s] = noise(step, s)
		}
		row[0] += shift
		if err := c.DetectBatchInto([][]float64{row}, []int64{int64(step)}, &det); err != nil {
			t.Fatal(err)
		}
		step++
		return len(det.Flags)
	}
	for i := 0; i < 30; i++ {
		push(0)
	}
	if !c.Warmed() {
		t.Fatal("not calibrated after warmup")
	}
	// Accumulate most of the way to an alarm, then reset: the chart
	// must restart from zero, not alarm on the next nudge.
	for i := 0; i < 4; i++ {
		push(1.5)
	}
	c.Reset()
	if got := push(1.5); got != 0 {
		t.Fatalf("flagged immediately after Reset (%d flags): sums not cleared", got)
	}
	// The baseline survived the reset: a gross shift still alarms in a
	// handful of steps.
	flagged := false
	for i := 0; i < 10; i++ {
		if push(6) > 0 {
			flagged = true
			break
		}
	}
	if !flagged {
		t.Fatal("post-reset chart never alarmed on a 6σ-scale shift: baseline lost?")
	}
}

func TestCUSUMShapeErrors(t *testing.T) {
	c, _ := NewCUSUM(3, 0, 0, 0)
	var det Detections
	if err := c.DetectBatchInto([][]float64{{1, 2}}, []int64{0}, &det); err == nil {
		t.Fatal("accepted a row with the wrong sensor count")
	}
	if err := c.DetectBatchInto([][]float64{{1, 2, 3}}, nil, &det); err == nil {
		t.Fatal("accepted mismatched timestamps")
	}
	if _, err := NewCUSUM(0, 0, 0, 0); err == nil {
		t.Fatal("accepted zero sensors")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	names := Registered()
	want := map[string]bool{"cusum": true, "zscore": true, "ensemble": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("families missing from registry: %v (have %v)", want, names)
	}
	for _, n := range []string{"cusum", "zscore", "ensemble"} {
		// The default ensemble holds mgd, which registers in core.
		d, err := New(n, Context{Sensors: 4, Members: []string{"cusum", "zscore"}})
		if err != nil {
			t.Fatalf("build %s: %v", n, err)
		}
		if d.Name() != n {
			t.Fatalf("built %s, Name() = %s", n, d.Name())
		}
	}
	if _, err := New("nope", Context{Sensors: 4}); err == nil {
		t.Fatal("unknown family built")
	}
	if _, err := New("cusum", Context{Sensors: 0}); err == nil {
		t.Fatal("zero-sensor context accepted")
	}
}

func TestContextParam(t *testing.T) {
	c := Context{Params: map[string]float64{"k": 0.25}}
	if got := c.Param("k", 0.5); got != 0.25 {
		t.Fatalf("Param(k) = %v", got)
	}
	if got := c.Param("h", 5); got != 5 {
		t.Fatalf("Param default = %v", got)
	}
}

func ExampleRegistered() {
	fmt.Println(len(Registered()) >= 3)
	// Output: true
}
