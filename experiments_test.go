package repro

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

// TestRigDeliversWhatWasSubmitted runs the shared rig where the rate
// rows cannot: under -race and -short, with no rate ceiling. The proxy
// has delivered exactly what its submissions returned as stored, dropped
// nothing, and the region servers' write shares sum to 1.
func TestRigDeliversWhatWasSubmitted(t *testing.T) {
	r, err := NewRig(RigConfig{Nodes: 2, Salted: true, Units: 4, Sensors: 10, Window: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res := r.run(r.cfg.Window)
	r.Close()
	if res.Submitted == 0 || res.Delivered == 0 {
		t.Fatalf("nothing moved: %+v", res)
	}
	if got := r.Proxy.Delivered.Value(); got != res.Submitted {
		t.Fatalf("proxy delivered %d, producers submitted %d", got, res.Submitted)
	}
	if d := r.Proxy.Dropped.Value(); d != 0 || res.Failed != 0 {
		t.Fatalf("dropped %d points, %d batches refused", d, res.Failed)
	}
	sum := 0.0
	for _, s := range r.Cluster.WriteShares() {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("write shares sum to %v, want 1", sum)
	}
}

// TestPaperClaims runs every row of the claims table at CI size: each
// must hold. Rows that measure rates skip under the race detector (its
// ~10× slowdown flattens the token-bucket service rates) and -short.
// A row the host may be unable to judge (Claim.Unjudged) gets a judged
// subtest: it passes when the rule was applied and skips with why when
// it could not be (ErrNotJudged), so a run that judged nothing is
// counted as a skip, not a pass; the row itself then passes on having
// measured.
func TestPaperClaims(t *testing.T) {
	for _, c := range Claims {
		t.Run(c.ID, func(t *testing.T) {
			if c.WallClock && (raceEnabled || testing.Short()) {
				t.Skip("wall-clock rates are meaningless under the race detector and skipped in -short")
			}
			v, err := c.Measure(CI)
			t.Log(c.Report(v, err))
			if c.Unjudged != nil {
				t.Run("judged", func(t *testing.T) {
					if errors.Is(err, ErrNotJudged) {
						t.Skip(err)
					}
				})
			}
			if err != nil && !errors.Is(err, ErrNotJudged) {
				t.Fatal(err)
			}
		})
	}
}

// TestClaimsTable checks the table itself: unique ids, every field set,
// and a rule that fails a run measuring NaN or ±Inf in any value.
func TestClaimsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims {
		if seen[c.ID] {
			t.Errorf("id %q appears twice", c.ID)
		}
		seen[c.ID] = true
		if c.ID == "" || c.Section == "" || c.Says == "" || c.Unit == "" || c.Rule == "" || slices.Contains(c.Measures, "") ||
			len(c.Measures) == 0 || c.Run == nil || c.Holds == nil || math.IsNaN(c.Paper) || math.IsInf(c.Paper, 0) {
			t.Errorf("%s: a field is unset: %+v", c.ID, c)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for i := range c.Measures {
				v := make([]float64, len(c.Measures))
				for j := range v {
					v[j] = c.Paper
				}
				v[i] = bad
				if c.check(v) == nil {
					t.Errorf("%s: the rule holds for %v", c.ID, v)
				}
			}
		}
	}
}

// TestE6JudgedOnGrantedCPU: E6 holds on the samples its window scored
// per CPU-second, and on the wall-clock rate too whenever the host had
// most of a core to spare for it.
func TestE6JudgedOnGrantedCPU(t *testing.T) {
	i := slices.IndexFunc(Claims, func(c Claim) bool { return c.ID == "E6" })
	e6 := Claims[i]
	for _, tc := range []struct {
		v     []float64
		holds bool
	}{
		{[]float64{3.0e6, 2.9e6, 2}, true},    // idle host
		{[]float64{3.1e6, 1.7e6, 0.8}, true},  // the window shared its core
		{[]float64{3.0e6, 0.8e6, 1.0}, false}, // a core spare, yet slow by the wall clock
		{[]float64{0.8e6, 0.8e6, 0.5}, false}, // slow per CPU-second
		{[]float64{0.9e6, 1.0e6, 2.0}, false}, // a fast wall rate does not excuse the CPU rate
	} {
		if err := e6.check(tc.v); (err == nil) != tc.holds {
			t.Errorf("E6 on %v: %v, want holds %t", tc.v, err, tc.holds)
		}
	}
}
