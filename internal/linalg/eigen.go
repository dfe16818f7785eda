package linalg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// EigenSym returns every eigenvalue of the symmetric matrix a, in
// descending order, and the eigenvectors of the k leading ones as the
// columns of the n×k matrix v (k is clamped to [1, n]): A·v_j = λ_j·v_j.
// Only a's lower triangle is read.
//
// One path serves every n. A Householder reduction to tridiagonal form
// keeps its reflectors instead of accumulating them; implicit-shift QL
// finds the eigenvalues alone, in tqli's arithmetic, so they are
// bit-identical to a full tred2/tqli decomposition's; inverse iteration
// on the tridiagonal finds the k vectors, which the reflectors carry
// back. The reduction's ~(4/3)n³ flops are nearly all the cost — forming
// every eigenvector would add about three times that — so a caller that
// keeps a few components should ask for only those.
func EigenSym(a *Matrix, k int) (eig []float64, v *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("%w: eigen needs a square matrix, have %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if !a.IsSymmetric(1e-9 * (1 + a.FrobeniusNorm())) {
		return nil, nil, errors.New("linalg: EigenSym requires a symmetric matrix")
	}
	n := a.Rows
	k = min(max(k, 1), n)
	w := a.Clone()
	for i := range n { // tridiagonalize walks both triangles: mirror the lower
		for j := range i {
			w.Data[j*n+i] = w.Data[i*n+j]
		}
	}
	d, e, h := tridiagonalize(w)
	eig = slices.Clone(d)
	if err := qlEigenvalues(eig, slices.Clone(e)); err != nil {
		return nil, nil, err
	}
	slices.SortStableFunc(eig, func(x, y float64) int { return cmp.Compare(y, x) })
	z, err := tridiagEigenvectors(d, e, eig[:k])
	if err != nil {
		return nil, nil, err
	}
	backTransform(w, h, z)
	v = NewMatrix(n, k)
	for j := range k {
		for r, x := range z[j*n : (j+1)*n] {
			v.Data[r*k+j] = x
		}
	}
	return eig, v, nil
}
