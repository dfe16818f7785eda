package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	approx(t, NormalCDF(0), 0.5, 1e-15, "Φ(0)")
	approx(t, NormalCDF(1.959963984540054), 0.975, 1e-12, "Φ(1.96)")
	approx(t, NormalCDF(-1.959963984540054), 0.025, 1e-12, "Φ(-1.96)")
	approx(t, NormalCDF(3), 0.9986501019683699, 1e-12, "Φ(3)")
	approx(t, NormalSF(3), 1-0.9986501019683699, 1e-12, "SF(3)")
}

func TestLnGamma(t *testing.T) {
	// Γ(n) = (n-1)!
	approx(t, lnGamma(1), 0, 1e-12, "lnΓ(1)")
	approx(t, lnGamma(2), 0, 1e-12, "lnΓ(2)")
	approx(t, lnGamma(5), math.Log(24), 1e-10, "lnΓ(5)")
	approx(t, lnGamma(0.5), math.Log(math.Sqrt(math.Pi)), 1e-10, "lnΓ(1/2)")
	approx(t, lnGamma(11), math.Log(3628800), 1e-9, "lnΓ(11)")
	if !math.IsNaN(lnGamma(0)) {
		t.Fatal("lnΓ(0) must be NaN")
	}
}

func TestChiSquaredCDFKnownValues(t *testing.T) {
	// χ²(1): CDF(x) = 2Φ(√x) - 1.
	for _, x := range []float64{0.5, 1, 2, 3.841458820694124} {
		want := 2*NormalCDF(math.Sqrt(x)) - 1
		approx(t, ChiSquaredCDF(x, 1), want, 1e-9, "χ²(1) CDF")
	}
	// χ²(2) is Exp(1/2): CDF(x) = 1 - e^{-x/2}.
	for _, x := range []float64{0.1, 1, 5, 10} {
		approx(t, ChiSquaredCDF(x, 2), 1-math.Exp(-x/2), 1e-10, "χ²(2) CDF")
	}
	// 95th percentile of χ²(10) is 18.307038.
	approx(t, ChiSquaredCDF(18.307038053275146, 10), 0.95, 1e-8, "χ²(10) 95%")
}

func TestCDFMonotoneProperties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		if NormalCDF(lo) > NormalCDF(hi)+1e-15 {
			return false
		}
		lo, hi = math.Abs(lo), math.Abs(hi)
		if lo > hi {
			lo, hi = hi, lo
		}
		return ChiSquaredCDF(lo, 3) <= ChiSquaredCDF(hi, 3)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalSFIntoMatchesScalar(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = -5 + float64(i)*0.1
	}
	dst := make([]float64, len(xs))
	NormalSFInto(dst, xs)
	for i, x := range xs {
		if dst[i] != NormalSF(x) {
			t.Fatalf("NormalSFInto(%v) = %v, want %v", x, dst[i], NormalSF(x))
		}
	}
	// In-place aliasing must give the same answers.
	aliased := append([]float64(nil), xs...)
	NormalSFInto(aliased, aliased)
	for i := range xs {
		if aliased[i] != dst[i] {
			t.Fatalf("aliased NormalSFInto diverged at %d", i)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { NormalSFInto(dst, xs) }); allocs != 0 {
		t.Fatalf("NormalSFInto allocated %v times per call, want 0", allocs)
	}
}
