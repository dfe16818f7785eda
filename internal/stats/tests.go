package stats

import (
	"fmt"
	"math"
)

// Tail selects which alternative hypothesis a test evaluates.
type Tail int

// The three standard alternatives.
const (
	TwoSided Tail = iota // H1: μ ≠ μ0
	Greater              // H1: μ > μ0
	Less                 // H1: μ < μ0
)

// String implements fmt.Stringer for diagnostics.
func (t Tail) String() string {
	switch t {
	case TwoSided:
		return "two-sided"
	case Greater:
		return "greater"
	case Less:
		return "less"
	default:
		return fmt.Sprintf("Tail(%d)", int(t))
	}
}

// TestResult is the outcome of a hypothesis test: the test statistic
// and its p-value under the null.
type TestResult struct {
	Statistic float64
	PValue    float64
}

// ZTest tests H0: μ = mu0 for a sample with known population standard
// deviation sigma, returning the z statistic and p-value for the
// requested tail. It is the per-sensor test used by the online anomaly
// evaluator, where sigma comes from the trained model.
func ZTest(sampleMean, mu0, sigma float64, n int, tail Tail) TestResult {
	if sigma <= 0 || n <= 0 {
		return TestResult{Statistic: math.NaN(), PValue: math.NaN()}
	}
	z := (sampleMean - mu0) / (sigma / math.Sqrt(float64(n)))
	return TestResult{Statistic: z, PValue: pFromZ(z, tail)}
}

// ZTestPoint is ZTest with n = 1: the p-value of a single standardized
// observation. This matches the paper's setting of testing each new
// sensor reading against its trained benchmark.
func ZTestPoint(x, mu0, sigma float64, tail Tail) TestResult {
	return ZTest(x, mu0, sigma, 1, tail)
}

func pFromZ(z float64, tail Tail) float64 {
	switch tail {
	case Greater:
		return NormalSF(z)
	case Less:
		return NormalCDF(z)
	default:
		return 2 * NormalSF(math.Abs(z))
	}
}

// FWER returns the family-wise error rate 1-(1-α)^m of m independent
// tests each at level α — the closed-form blow-up from §IV of the
// paper (α=0.05, m=10 ⇒ 40%).
func FWER(alpha float64, m int) float64 {
	if m <= 0 {
		return 0
	}
	return 1 - math.Pow(1-alpha, float64(m))
}
