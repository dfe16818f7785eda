package fdr

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestApplyRejectsBadLevel(t *testing.T) {
	for _, lvl := range []float64{0, 1, -0.5, 2} {
		if _, err := Apply(BH, []float64{0.01}, lvl); !errors.Is(err, ErrBadLevel) {
			t.Fatalf("level %v must be rejected", lvl)
		}
	}
}

func TestApplyEmptyFamily(t *testing.T) {
	r, err := Apply(BH, nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumReject != 0 || len(r.Rejected) != 0 {
		t.Fatal("empty family must reject nothing")
	}
}

func TestUncorrected(t *testing.T) {
	r, err := Apply(Uncorrected, []float64{0.01, 0.04, 0.06, 0.5}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if r.Rejected[i] != want[i] {
			t.Fatalf("uncorrected rejections = %v, want %v", r.Rejected, want)
		}
	}
	if r.NumReject != 2 {
		t.Fatalf("NumReject = %d, want 2", r.NumReject)
	}
}

func TestBonferroniKnownCase(t *testing.T) {
	// m=4, α=0.05 ⇒ per-test threshold 0.0125.
	r, err := Apply(Bonferroni, []float64{0.001, 0.0125, 0.013, 0.9}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if r.Rejected[i] != want[i] {
			t.Fatalf("bonferroni rejections = %v, want %v", r.Rejected, want)
		}
	}
	if r.Adjusted[0] != 0.004 {
		t.Fatalf("adjusted[0] = %v, want 0.004", r.Adjusted[0])
	}
	if r.Adjusted[3] != 1 {
		t.Fatalf("adjusted[3] = %v, want clamped to 1", r.Adjusted[3])
	}
}

func TestBHClassicExample(t *testing.T) {
	// The worked example from Benjamini & Hochberg (1995), 15 p-values,
	// q = 0.05: the procedure rejects exactly the four smallest.
	pvals := []float64{
		0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344,
		0.0459, 0.3240, 0.4262, 0.5719, 0.6528, 0.7590, 1.0000,
	}
	r, err := Apply(BH, pvals, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumReject != 4 {
		t.Fatalf("BH on B&H example rejected %d, want 4", r.NumReject)
	}
	for i := 0; i < 4; i++ {
		if !r.Rejected[i] {
			t.Fatalf("BH must reject the 4 smallest; Rejected=%v", r.Rejected)
		}
	}
	// Bonferroni on the same family is more conservative: α/15 ≈ 0.0033
	// rejects only the three smallest.
	rb, err := Apply(Bonferroni, pvals, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rb.NumReject != 3 {
		t.Fatalf("Bonferroni rejected %d, want 3", rb.NumReject)
	}
}

func TestBHStepUpPullsInLargerPs(t *testing.T) {
	// p = {0.01, 0.02, 0.03, 0.04}, α=0.05: every p(i) ≤ i·α/4, so BH
	// rejects all four even though 0.04 > α/4; Bonferroni rejects only
	// the first.
	pvals := []float64{0.01, 0.02, 0.03, 0.04}
	r, _ := Apply(BH, pvals, 0.05)
	if r.NumReject != 4 {
		t.Fatalf("BH should reject all 4, got %d", r.NumReject)
	}
	rb, _ := Apply(Bonferroni, pvals, 0.05)
	if rb.NumReject != 1 {
		t.Fatalf("Bonferroni should reject 1, got %d", rb.NumReject)
	}
}

func TestBYMoreConservativeThanBH(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		m := 20
		pvals := make([]float64, m)
		for i := range pvals {
			pvals[i] = rng.Float64() * 0.2
		}
		rbh, _ := Apply(BH, pvals, 0.05)
		rby, _ := Apply(BY, pvals, 0.05)
		if rby.NumReject > rbh.NumReject {
			t.Fatalf("BY rejected %d > BH %d", rby.NumReject, rbh.NumReject)
		}
		for i := range pvals {
			if rby.Rejected[i] && !rbh.Rejected[i] {
				t.Fatal("BY rejections must be a subset of BH rejections")
			}
		}
	}
}

func TestBHDominatesBonferroni(t *testing.T) {
	// FDR control is weaker than FWER control, so BH rejects a superset
	// of Bonferroni's rejections on any fixed family — §IV's case for
	// BH over the family-wise baseline.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(30) + 1
		pvals := make([]float64, m)
		for i := range pvals {
			pvals[i] = rng.Float64()
		}
		rbh, err1 := Apply(BH, pvals, 0.05)
		rbon, err2 := Apply(Bonferroni, pvals, 0.05)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range pvals {
			if rbon.Rejected[i] && !rbh.Rejected[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustedPValuesMonotoneInRawOrder(t *testing.T) {
	// For every procedure, if p_i ≤ p_j then adj_i ≤ adj_j.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(20) + 2
		pvals := make([]float64, m)
		for i := range pvals {
			pvals[i] = rng.Float64()
		}
		for _, proc := range Procedures {
			r, err := Apply(proc, pvals, 0.1)
			if err != nil {
				return false
			}
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					if pvals[i] <= pvals[j] && r.Adjusted[i] > r.Adjusted[j]+1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectionConsistentWithAdjusted(t *testing.T) {
	// For the threshold procedures, Rejected[i] ⇔ Adjusted[i] ≤ level;
	// for the sequential ones rejection implies adjusted ≤ level.
	pv := []float64{0.001, 0.01, 0.02, 0.2, 0.6, 0.9}
	for _, proc := range Procedures {
		r, err := Apply(proc, pv, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pv {
			if r.Rejected[i] && r.Adjusted[i] > 0.05+1e-12 {
				t.Fatalf("%v: rejected hypothesis %d has adjusted p %v > level", proc, i, r.Adjusted[i])
			}
		}
	}
}

func TestNaNAndOutOfRangeHandling(t *testing.T) {
	r, err := Apply(BH, []float64{math.NaN(), -0.5, 1.5, 0.001}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rejected[0] {
		t.Fatal("NaN p-value must never be rejected")
	}
	if !r.Rejected[1] {
		t.Fatal("negative p-value must be clamped to 0 and rejected")
	}
	if r.Rejected[2] {
		t.Fatal("p>1 must be clamped to 1 and not rejected")
	}
}

func TestProcedureString(t *testing.T) {
	seen := map[string]bool{}
	for _, proc := range Procedures {
		name := proc.String()
		if seen[name] || strings.HasPrefix(name, "Procedure(") {
			t.Fatalf("%d renders as %q: want a distinct name", int(proc), name)
		}
		seen[name] = true
	}
	if Procedure(99).String() == "" {
		t.Fatal("unknown procedure must render")
	}
}

func TestScoreAndConfusion(t *testing.T) {
	rejected := []bool{true, true, false, false}
	truth := []bool{true, false, true, false}
	c := Score(rejected, truth)
	if c.TruePositives != 1 || c.FalsePositives != 1 || c.FalseNegatives != 1 || c.TrueNegatives != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.FDP() != 0.5 {
		t.Fatalf("FDP = %v, want 0.5", c.FDP())
	}
	if c.Power() != 0.5 {
		t.Fatalf("Power = %v, want 0.5", c.Power())
	}
	if !c.AnyFalseAlarm() {
		t.Fatal("must report a false alarm")
	}
	empty := Score([]bool{false}, []bool{false})
	if empty.FDP() != 0 || empty.Power() != 1 {
		t.Fatal("degenerate conventions: FDP=0, Power=1")
	}
}

func TestMetricsAggregation(t *testing.T) {
	var m Metrics
	m.Add(Confusion{TruePositives: 1, FalsePositives: 1}) // FDP 0.5, power 1
	m.Add(Confusion{TruePositives: 2, FalseNegatives: 2}) // FDP 0, power 0.5
	if m.Trials != 2 {
		t.Fatal("Trials wrong")
	}
	if math.Abs(m.FDR()-0.25) > 1e-12 {
		t.Fatalf("FDR = %v, want 0.25", m.FDR())
	}
	if math.Abs(m.Power()-0.75) > 1e-12 {
		t.Fatalf("Power = %v, want 0.75", m.Power())
	}
	if math.Abs(m.FWER()-0.5) > 1e-12 {
		t.Fatalf("FWER = %v, want 0.5", m.FWER())
	}
	var zero Metrics
	if zero.FDR() != 0 || zero.FWER() != 0 || zero.Power() != 0 {
		t.Fatal("zero-trial metrics must be 0")
	}
}

// TestUncorrectedFWERMatchesPaper reproduces the paper's §IV arithmetic
// empirically: with α=0.05 and all-null sensors, the probability of at
// least one false alarm is ≈5% for 1 sensor and ≈40% for 10 sensors.
func TestUncorrectedFWERMatchesPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 4000
	for _, tc := range []struct {
		m    int
		want float64
	}{
		{1, 0.05},
		{10, 0.4013},
	} {
		var met Metrics
		truth := make([]bool, tc.m)
		for trial := 0; trial < trials; trial++ {
			pvals := make([]float64, tc.m)
			for i := range pvals {
				pvals[i] = stats.ZTestPoint(rng.NormFloat64(), 0, 1, stats.TwoSided).PValue
			}
			r, err := Apply(Uncorrected, pvals, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			met.Add(Score(r.Rejected, truth))
		}
		if got := met.FWER(); math.Abs(got-tc.want) > 0.03 {
			t.Fatalf("m=%d: empirical FWER = %v, want ≈%v", tc.m, got, tc.want)
		}
	}
}

// TestBHControlsFDRUnderMixture verifies the headline property: with a
// mix of true nulls and true faults, BH keeps empirical FDR ≤ q while
// uncorrected testing blows past it and Bonferroni sacrifices power.
func TestBHControlsFDRUnderMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const (
		m      = 200
		m1     = 20 // true faults
		shift  = 4.0
		q      = 0.10
		trials = 300
	)
	truth := make([]bool, m)
	for i := 0; i < m1; i++ {
		truth[i] = true
	}
	var bhM, unM, bonM Metrics
	for trial := 0; trial < trials; trial++ {
		pvals := make([]float64, m)
		for i := range pvals {
			mu := 0.0
			if truth[i] {
				mu = shift
			}
			pvals[i] = stats.ZTestPoint(rng.NormFloat64()+mu, 0, 1, stats.TwoSided).PValue
		}
		rbh, _ := Apply(BH, pvals, q)
		run, _ := Apply(Uncorrected, pvals, q)
		rbon, _ := Apply(Bonferroni, pvals, q)
		bhM.Add(Score(rbh.Rejected, truth))
		unM.Add(Score(run.Rejected, truth))
		bonM.Add(Score(rbon.Rejected, truth))
	}
	if got := bhM.FDR(); got > q+0.03 {
		t.Fatalf("BH empirical FDR = %v, must be ≤ q=%v (+slack)", got, q)
	}
	if got := unM.FDR(); got < q {
		t.Fatalf("uncorrected FDR = %v, expected to exceed q=%v", got, q)
	}
	if bhM.Power() < bonM.Power() {
		t.Fatalf("BH power %v must be ≥ Bonferroni power %v", bhM.Power(), bonM.Power())
	}
	if bhM.Power() < 0.8 {
		t.Fatalf("BH power = %v, expected high power at shift=4", bhM.Power())
	}
}
