package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	eig, v, err := EigenSym(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [3 1]", eig)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	if math.Abs(math.Abs(v.At(0, 0))-1/math.Sqrt2) > 1e-10 {
		t.Fatalf("eigenvector wrong: %v", v)
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 9}})
	eig, v, err := EigenSym(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 5, -2}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-12 {
			t.Fatalf("eig = %v, want %v", eig, want)
		}
	}
	if v.Cols != 1 || math.Abs(math.Abs(v.At(2, 0))-1) > 1e-12 {
		t.Fatalf("leading eigenvector = %v, want ±e₂ alone", v)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 5, 20, 50} {
		a := randSymmetric(rng, n)
		eig, v, err := EigenSym(a, n)
		if err != nil {
			t.Fatal(err)
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if eig[i] > eig[i-1]+1e-12 {
				t.Fatalf("n=%d: eigenvalues not descending: %v", n, eig)
			}
		}
		// V orthonormal: VᵀV = I.
		vtv, err := v.T().Mul(v)
		if err != nil {
			t.Fatal(err)
		}
		if d := vtv.MaxAbsDiff(Identity(n)); d > 1e-8 {
			t.Fatalf("n=%d: VᵀV differs from I by %v", n, d)
		}
		if d := reconstruct(t, eig, v).MaxAbsDiff(a); d > 1e-8 {
			t.Fatalf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestEigenSymRejectsNonSquareAndAsymmetric(t *testing.T) {
	if _, _, err := EigenSym(NewMatrix(2, 3), 1); err == nil {
		t.Fatal("non-square must error")
	}
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigenSym(a, 1); err == nil {
		t.Fatal("asymmetric must error")
	}
}

// TestEigenSymClampsK: k outside [1, n] keeps its nearest end, and every
// eigenvalue comes back whatever k is.
func TestEigenSymClampsK(t *testing.T) {
	a := randSymmetric(rand.New(rand.NewSource(12)), 6)
	for k, want := range map[int]int{-3: 1, 0: 1, 4: 4, 6: 6, 100: 6} {
		eig, v, err := EigenSym(a, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(eig) != 6 || v.Rows != 6 || v.Cols != want {
			t.Fatalf("k=%d: %d eigenvalues, v %dx%d; want 6, 6x%d", k, len(eig), v.Rows, v.Cols, want)
		}
	}
}

func TestEigenTraceAndDeterminantInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		a := randSymmetric(rng, n)
		eig, _, err := EigenSym(a, 1)
		if err != nil {
			return false
		}
		trace, sumEig := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sumEig += eig[i]
		}
		return math.Abs(trace-sumEig) < 1e-8*(1+math.Abs(trace))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLargeEigenMatchesJacobi cross-validates the whole decomposition
// against cyclic Jacobi, an independent algorithm, on random symmetric
// (indefinite) matrices around the size where EigenSym once switched
// between the two.
func TestLargeEigenMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{65, 100, 150} {
		a := randSymmetric(rng, n)
		eig, v, err := EigenSym(a, n)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := refEigenJacobi(a)
		for i := range eig {
			if math.Abs(eig[i]-ref[i]) > 1e-10*(1+a.FrobeniusNorm()) {
				t.Fatalf("n=%d: eigenvalue %d = %v, Jacobi %v", n, i, eig[i], ref[i])
			}
		}
		vtv, err := v.T().Mul(v)
		if err != nil {
			t.Fatal(err)
		}
		if d := vtv.MaxAbsDiff(Identity(n)); d > 1e-8 {
			t.Fatalf("n=%d: VᵀV differs from I by %v", n, d)
		}
		if d := reconstruct(t, eig, v).MaxAbsDiff(a); d > 1e-7*(1+a.FrobeniusNorm()) {
			t.Fatalf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestLargeEigenOnPSDCovariance(t *testing.T) {
	// PSD input (the trainer's case): all eigenvalues ≥ ~0 and the
	// dominant direction recovered.
	rng := rand.New(rand.NewSource(78))
	n := 120
	b := randMatrix(rng, 300, n)
	psd, err := b.T().Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	eig, _, err := EigenSym(psd, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range eig {
		if l < -1e-6*(1+eig[0]) {
			t.Fatalf("PSD eigenvalue %d = %v negative", i, l)
		}
	}
}

// TestEigenSymMatchesQLReference holds EigenSym to the full tred2/tqli
// decomposition on the covariances the trainer feeds it: eigenvalues
// bit-equal above 64 sensors (the sizes the reference served) and
// within 1e-12‖A‖ below; the k = 10 leading vectors within 1e-10 of the
// reference's up to sign — up to rotation within a repeated eigenvalue,
// where a vector is not unique — orthonormal to 1e-12, and with
// residuals ‖Av − λv‖ under 1e-12‖A‖.
func TestEigenSymMatchesQLReference(t *testing.T) {
	const k = 10
	rng := rand.New(rand.NewSource(79))
	cases := map[string]func(n int) *Matrix{
		"random": func(n int) *Matrix { return covariance(t, randMatrix(rng, 2*n+2, n)) },
		// Fewer observations than sensors: rank ≤ rows − 1.
		"rank-deficient": func(n int) *Matrix { return covariance(t, randMatrix(rng, n/3+2, n)) },
		"constant-channel": func(n int) *Matrix {
			x := randMatrix(rng, 2*n+2, n)
			for i := range x.Rows {
				x.Set(i, n/2, 7)
			}
			return covariance(t, x)
		},
		// Two uncorrelated copies of one sensor block (and a constant
		// sensor when n is odd): every eigenvalue of the block twice.
		"repeated": func(n int) *Matrix {
			m := max(n/2, 1)
			c := covariance(t, randMatrix(rng, 2*m+2, m))
			a := NewMatrix(n, n)
			for i := range 2 * (n / 2) {
				for j := range 2 * (n / 2) {
					if i/m == j/m {
						a.Set(i, j, c.At(i%m, j%m))
					}
				}
			}
			return a
		},
	}
	for _, name := range []string{"random", "rank-deficient", "constant-channel", "repeated"} {
		for _, n := range []int{1, 2, 3, 10, 64, 65, 200, 257} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				a := cases[name](n)
				norm := a.FrobeniusNorm()
				eig, v, err := EigenSym(a, k)
				if err != nil {
					t.Fatal(err)
				}
				refEig, refV, err := refEigenQL(a)
				if err != nil {
					t.Fatal(err)
				}
				for i := range refEig {
					if n > 64 && math.Float64bits(eig[i]) != math.Float64bits(refEig[i]) {
						t.Fatalf("eigenvalue %d = %v, reference %v: not bit-equal", i, eig[i], refEig[i])
					}
					if d := math.Abs(eig[i] - refEig[i]); d > 1e-12*norm {
						t.Fatalf("eigenvalue %d = %v, reference %v: off by %v", i, eig[i], refEig[i], d)
					}
				}
				kk := min(k, n)
				if v.Rows != n || v.Cols != kk {
					t.Fatalf("v is %dx%d, want %dx%d", v.Rows, v.Cols, n, kk)
				}
				vtv, err := v.T().Mul(v)
				if err != nil {
					t.Fatal(err)
				}
				if d := vtv.MaxAbsDiff(Identity(kk)); d > 1e-12 {
					t.Fatalf("VᵀV differs from I by %v", d)
				}
				av, err := a.Mul(v)
				if err != nil {
					t.Fatal(err)
				}
				for j := range kk {
					for r := range n {
						if d := math.Abs(av.At(r, j) - eig[j]*v.At(r, j)); d > 1e-12*norm {
							t.Fatalf("vector %d: residual %v at row %d", j, d, r)
						}
					}
				}
				// A reference vector must lie in the span of the kept
				// vectors whose eigenvalue equals its own (to rounding).
				same := func(i, j int) bool { return math.Abs(eig[i]-eig[j]) <= 1e-10*norm }
			vectors:
				for j := range kk {
					for c := kk; c < n; c++ {
						if same(c, j) {
							continue vectors // its eigenspace straddles the k kept
						}
					}
					proj := 0.0
					for c := range kk {
						if same(c, j) {
							dot := 0.0
							for r := range n {
								dot += refV.At(r, j) * v.At(r, c)
							}
							proj += dot * dot
						}
					}
					if got := math.Sqrt(proj); got < 1-1e-10 {
						t.Fatalf("reference vector %d (λ=%v): |cos| to the kept eigenspace = %.15f", j, eig[j], got)
					}
				}
			})
		}
	}
}

// randSymmetric returns an n×n symmetric matrix of standard normals.
func randSymmetric(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func covariance(t *testing.T, x *Matrix) *Matrix {
	t.Helper()
	c, _, err := x.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reconstruct returns V·diag(eig)·Vᵀ.
func reconstruct(t *testing.T, eig []float64, v *Matrix) *Matrix {
	t.Helper()
	vd := v.Clone()
	for j := 0; j < v.Cols; j++ {
		for i := 0; i < v.Rows; i++ {
			vd.Set(i, j, vd.At(i, j)*eig[j])
		}
	}
	rec, err := vd.Mul(v.T())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
