package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// jacobiMaxN is the size above which EigenSym switches from cyclic
// Jacobi to Householder+QL; Jacobi's ~10 O(n³) sweeps become an order
// of magnitude slower than QL at the paper's 1000-sensor covariances.
const jacobiMaxN = 64

// EigenSym computes the full eigendecomposition of a symmetric matrix:
// A = V·diag(λ)·Vᵀ. Eigenvalues are returned in descending order with
// the matching eigenvectors as the columns of V.
//
// Small matrices use the cyclic Jacobi method (quadratically
// convergent, unconditionally stable); larger ones use Householder
// tridiagonalization followed by implicit-shift QL (tred2/tqli), which
// handles the trainer's 1000×1000 covariances in about a second.
func EigenSym(a *Matrix) (eig []float64, v *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("%w: eigen needs a square matrix, have %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if !a.IsSymmetric(1e-9 * (1 + a.FrobeniusNorm())) {
		return nil, nil, errors.New("linalg: EigenSym requires a symmetric matrix")
	}
	if a.Rows > jacobiMaxN {
		return eigenSymLarge(a)
	}
	n := a.Rows
	w := a.Clone() // working copy, driven to diagonal form
	v = Identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-12*(1+w.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Stable rotation computation (Golub & Van Loan §8.5).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}

	eig = make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = w.At(i, i)
	}
	sortEigenDescending(eig, v)
	return eig, v, nil
}

// offDiagNorm returns the Frobenius norm of the off-diagonal part.
func offDiagNorm(a *Matrix) float64 {
	s := 0.0
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				v := a.At(i, j)
				s += v * v
			}
		}
	}
	return math.Sqrt(s)
}

// rotate applies the Jacobi rotation J(p,q,θ) on both sides of w and
// accumulates it into v: w ← JᵀwJ, v ← vJ.
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// sortEigenDescending reorders eigenpairs so eig is descending and the
// columns of v follow.
func sortEigenDescending(eig []float64, v *Matrix) {
	n := len(eig)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return eig[idx[a]] > eig[idx[b]] })
	sortedEig := make([]float64, n)
	sortedV := NewMatrix(v.Rows, v.Cols)
	for newCol, oldCol := range idx {
		sortedEig[newCol] = eig[oldCol]
		for r := 0; r < v.Rows; r++ {
			sortedV.Set(r, newCol, v.At(r, oldCol))
		}
	}
	copy(eig, sortedEig)
	copy(v.Data, sortedV.Data)
}

// SVDResult holds a thin singular value decomposition A = U·diag(S)·Vᵀ.
type SVDResult struct {
	U *Matrix   // m×r
	S []float64 // r singular values, descending
	V *Matrix   // n×r
}

// SVD computes a thin SVD of a (m×n) via the eigendecomposition of the
// Gramian. For m ≥ n it diagonalizes AᵀA (n×n); otherwise AAᵀ. This is
// the route Spark MLlib's distributed computeSVD takes for the
// covariance-sized problems the paper trains on, and it is numerically
// adequate because the detector only consumes the dominant subspace.
func SVD(a *Matrix) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if m >= n {
		ata, err := a.T().Mul(a)
		if err != nil {
			return nil, err
		}
		forceSymmetric(ata)
		eig, v, err := EigenSym(ata)
		if err != nil {
			return nil, err
		}
		s := make([]float64, n)
		for i, l := range eig {
			if l < 0 {
				l = 0
			}
			s[i] = math.Sqrt(l)
		}
		// U = A·V·S⁻¹ (columns with zero singular value are dropped).
		av, err := a.Mul(v)
		if err != nil {
			return nil, err
		}
		u := NewMatrix(m, n)
		for j := 0; j < n; j++ {
			if s[j] > 1e-300 {
				inv := 1 / s[j]
				for i := 0; i < m; i++ {
					u.Set(i, j, av.At(i, j)*inv)
				}
			}
		}
		return &SVDResult{U: u, S: s, V: v}, nil
	}
	// Wide matrix: decompose the transpose and swap factors.
	r, err := SVD(a.T())
	if err != nil {
		return nil, err
	}
	return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
}

// forceSymmetric symmetrizes tiny asymmetries introduced by parallel
// floating-point accumulation so EigenSym's check passes.
func forceSymmetric(a *Matrix) {
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
}

// Reconstruct multiplies the SVD factors back together, for testing.
func (r *SVDResult) Reconstruct() (*Matrix, error) {
	us := r.U.Clone()
	for j, s := range r.S {
		for i := 0; i < us.Rows; i++ {
			us.Set(i, j, us.At(i, j)*s)
		}
	}
	return us.Mul(r.V.T())
}

// TopK returns the eigen/singular subspace spanned by the first k
// columns of V (n×k). k is clamped to the available columns.
func (r *SVDResult) TopK(k int) *Matrix {
	if k > r.V.Cols {
		k = r.V.Cols
	}
	if k < 1 {
		k = 1
	}
	out := NewMatrix(r.V.Rows, k)
	for i := 0; i < r.V.Rows; i++ {
		copy(out.Row(i), r.V.Row(i)[:k])
	}
	return out
}
