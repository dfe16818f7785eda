package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestZTestTwoSided(t *testing.T) {
	// Observation exactly at the 97.5th percentile: two-sided p = 0.05.
	r := ZTestPoint(1.959963984540054, 0, 1, TwoSided)
	approx(t, r.PValue, 0.05, 1e-9, "two-sided p at z=1.96")
	approx(t, r.Statistic, 1.959963984540054, 1e-12, "z statistic")
}

func TestZTestTails(t *testing.T) {
	g := ZTestPoint(2, 0, 1, Greater)
	l := ZTestPoint(2, 0, 1, Less)
	two := ZTestPoint(2, 0, 1, TwoSided)
	approx(t, g.PValue, NormalSF(2), 1e-15, "greater tail")
	approx(t, l.PValue, NormalCDF(2), 1e-15, "less tail")
	approx(t, two.PValue, 2*NormalSF(2), 1e-15, "two-sided")
	// Sample size sharpens the statistic by √n.
	r := ZTest(0.5, 0, 1, 16, Greater)
	approx(t, r.Statistic, 2, 1e-12, "z with n=16")
}

func TestZTestBadParams(t *testing.T) {
	if r := ZTest(0, 0, 0, 10, TwoSided); !math.IsNaN(r.PValue) {
		t.Fatal("sigma=0 must produce NaN")
	}
	if r := ZTest(0, 0, 1, 0, TwoSided); !math.IsNaN(r.PValue) {
		t.Fatal("n=0 must produce NaN")
	}
}

func TestZTestPValueUniformUnderNull(t *testing.T) {
	// Under H0 the p-values must be ~Uniform(0,1): check mean and the
	// fraction below 0.05.
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	var sum float64
	below := 0
	for i := 0; i < n; i++ {
		p := ZTestPoint(rng.NormFloat64(), 0, 1, TwoSided).PValue
		sum += p
		if p < 0.05 {
			below++
		}
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Fatalf("mean p under null = %v, want ≈0.5", m)
	}
	frac := float64(below) / n
	if math.Abs(frac-0.05) > 0.01 {
		t.Fatalf("P(p<0.05) under null = %v, want ≈0.05", frac)
	}
}

func TestChiSquaredTest(t *testing.T) {
	// The upper-tail p-value the evaluator reads at χ²(10)'s 95th
	// percentile is 0.05.
	approx(t, ChiSquaredSF(18.307038053275146, 10), 0.05, 1e-8, "χ²(10) upper 5%")
}

func TestFWERMatchesClosedForm(t *testing.T) {
	// The exact numbers quoted in §IV of the paper.
	approx(t, FWER(0.05, 1), 0.05, 1e-12, "m=1")
	approx(t, FWER(0.05, 10), 0.4012630607616213, 1e-12, "m=10 ⇒ ≈40%")
	if f := FWER(0.05, 1000); f < 0.999999 {
		t.Fatalf("m=1000 FWER = %v, want ≈1", f)
	}
	if FWER(0.05, 0) != 0 {
		t.Fatal("m=0 must give 0")
	}
}

func TestTailString(t *testing.T) {
	if TwoSided.String() != "two-sided" || Greater.String() != "greater" || Less.String() != "less" {
		t.Fatal("Tail.String mismatch")
	}
	if Tail(99).String() == "" {
		t.Fatal("unknown tail must still render")
	}
}
