// Package stats implements the probability distributions and hypothesis
// tests the anomaly detector needs: the standard normal and chi-squared
// distributions, one- and two-sided z tests, and the closed-form
// family-wise error rate of §IV.
//
// Everything is implemented from scratch on math primitives; accuracy
// targets are ~1e-12 for the normal CDF and ~1e-8 for the incomplete
// gamma chain behind the chi-squared distribution, far tighter than the
// experiment harnesses require.
package stats

import "math"

// NormalCDF returns P(Z ≤ x) for the standard normal distribution.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalSF returns the survival function P(Z > x) = 1 - NormalCDF(x),
// computed directly from Erfc to stay accurate deep in the tail.
func NormalSF(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// NormalSFInto fills dst[i] = NormalSF(xs[i]) in one vectorized pass,
// the evaluator's per-tick p-value kernel: no per-element call overhead
// and no allocation. dst may alias xs; both must share the same
// length. Empty input is a no-op.
func NormalSFInto(dst, xs []float64) {
	if len(xs) == 0 {
		return
	}
	_ = dst[len(xs)-1]
	for i, x := range xs {
		dst[i] = 0.5 * math.Erfc(x/math.Sqrt2)
	}
}

// lnGamma returns ln Γ(x) for x > 0 (Lanczos approximation, g=7, n=9).
func lnGamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	g := [9]float64{
		0.99999999999980993, 676.5203681218851, -1259.1392167224028,
		771.32342877765313, -176.61502916214059, 12.507343278686905,
		-0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - lnGamma(1-x)
	}
	x--
	a := g[0]
	t := x + 7.5
	for i := 1; i < 9; i++ {
		a += g[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// regIncGammaLower returns the regularized lower incomplete gamma
// P(a, x) = γ(a,x)/Γ(a), by series for x < a+1 and continued fraction
// otherwise (Numerical-Recipes style, but re-derived from the standard
// Lentz algorithm).
func regIncGammaLower(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1.0 / a
		del := sum
		for n := 0; n < 500; n++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lnGamma(a))
	}
	// Continued fraction for Q(a,x), then P = 1-Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lnGamma(a)) * h
	return 1 - q
}

// ChiSquaredCDF returns P(X ≤ x) for X ~ χ²(k). The online detector
// uses it to convert Hotelling T² / SPE statistics into p-values.
func ChiSquaredCDF(x float64, k float64) float64 {
	if k <= 0 || x <= 0 {
		return 0
	}
	return regIncGammaLower(k/2, x/2)
}

// ChiSquaredSF returns the chi-squared survival function P(X > x).
func ChiSquaredSF(x float64, k float64) float64 {
	return 1 - ChiSquaredCDF(x, k)
}
