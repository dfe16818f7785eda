package linalg

import (
	"fmt"
	"math"
)

const (
	eps    = 0x1p-52   // float64 machine epsilon
	bignum = 0x1p+1022 // 1 / smallest normal float64
)

// tridiagonalize reduces the symmetric matrix in w (both triangles set)
// to the tridiagonal T = QᵀAQ by Householder reflections: the reduction
// half of the classic tred2, operation for operation, so d (T's
// diagonal) and e (its off-diagonal: e[i] couples i and i+1, e[n-1] = 0)
// are bit-identical to tred2's. Q is never formed. Reflector i
// (1 ≤ i < n), P_i = I − u·uᵀ/h[i], is left in row i of w, columns
// 0..i-1, with h[i] = 0 where row i needed none; Q = P_{n-1}···P_1.
//
// Where tred2 keeps only the lower triangle and reads its columns, w
// keeps both, so A·u and the rank-2 update walk rows. Each mirrored
// entry is computed with the operands its lower twin uses, in the same
// order, which keeps the two triangles bit-equal.
func tridiagonalize(w *Matrix) (d, e, h []float64) {
	n := w.Rows
	d, h = make([]float64, n), make([]float64, n)
	e = make([]float64, n) // e[i] holds T[i][i-1] until the shift below; e[0..i-1] is scratch for row i
	for i := n - 1; i >= 1; i-- {
		u := w.Data[i*n : i*n+i]
		l := i - 1
		scale := 0.0
		if l > 0 {
			for _, x := range u {
				scale += math.Abs(x)
			}
		}
		if scale == 0 {
			e[i] = u[l]
			continue
		}
		hi := 0.0
		for k := range u {
			u[k] /= scale
			hi += u[k] * u[k]
		}
		f := u[l]
		g := math.Sqrt(hi)
		if f >= 0 {
			g = -g
		}
		e[i] = scale * g
		hi -= f * g
		u[l] = f - g
		// p = A·u/h into e[0..l], and f = uᵀp.
		f = 0
		for j := range i {
			row := w.Data[j*n : j*n+i]
			g = 0
			for k, x := range row {
				g += x * u[k]
			}
			e[j] = g / hi
			f += e[j] * u[j]
		}
		// q = p − (f/2h)·u, then A ← A − u·qᵀ − q·uᵀ.
		hh := f / (hi + hi)
		for j := range i {
			e[j] -= hh * u[j]
		}
		for j := range i {
			row := w.Data[j*n : j*n+i]
			f, g := u[j], e[j]
			for k := 0; k <= j; k++ {
				row[k] = row[k] - f*e[k] - g*u[k]
			}
			for k := j + 1; k < i; k++ {
				row[k] = row[k] - g*u[k] - f*e[k]
			}
		}
		h[i] = hi
	}
	for i := range d {
		d[i] = w.Data[i*n+i]
	}
	copy(e, e[1:])
	e[n-1] = 0
	return d, e, h
}

// qlEigenvalues overwrites d with the eigenvalues (unordered) of the
// tridiagonal with diagonal d and off-diagonal e, destroying e: tqli's
// implicit-shift QL with the eigenvector rotations left out, so the
// values are bit-identical to tqli's.
func qlEigenvalues(d, e []float64) error {
	n := len(d)
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter >= 50 {
				return fmt.Errorf("linalg: QL failed to converge at eigenvalue %d", l)
			}
			// Find a small off-diagonal element to split at.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// tridiagEigenvectors returns unit eigenvectors of the tridiagonal T
// (diagonal d, off-diagonal e) for its eigenvalues eig, given in
// descending order: vector j is z[j*n:(j+1)*n]. It is inverse iteration
// as LAPACK's dstein does it: T − λI is factored with partial pivoting,
// a deterministic pseudo-random start is solved against it until its
// growth shows convergence, and a vector whose eigenvalue lies within
// 10⁻³‖T‖₁ of its predecessor's is orthogonalised against the rest of
// its cluster at every step. Each vector's largest component is
// positive.
func tridiagEigenvectors(d, e, eig []float64) ([]float64, error) {
	n, k := len(d), len(eig)
	z := make([]float64, k*n)
	onenrm := 0.0
	for i, x := range d {
		s := math.Abs(x) + math.Abs(e[i])
		if i > 0 {
			s += math.Abs(e[i-1])
		}
		onenrm = max(onenrm, s)
	}
	if n == 1 || onenrm == 0 { // T is diagonal and zero, or 1×1: unit vectors
		for j := range k {
			z[j*n+j] = 1
		}
		return z, nil
	}
	ortol := 1e-3 * onenrm
	dtpcrt := math.Sqrt(0.1 / float64(n)) // the growth that shows convergence
	a, u2 := make([]float64, n), make([]float64, n)
	b, c, swap := make([]float64, n-1), make([]float64, n-1), make([]bool, n-1)
	cluster, xjm, seed := 0, 0.0, uint64(0)
	for j := range k {
		y := z[j*n : (j+1)*n]
		xj := eig[j]
		if j > 0 {
			// Keep the shifts of (nearly) equal eigenvalues apart.
			if pertol := 10 * math.Abs(eps*xj); xjm-xj < pertol {
				xj = xjm - pertol
			}
			if math.Abs(xjm-xj) > ortol {
				cluster = j
			}
		}
		for i := range y { // splitmix64, uniform on [-1, 1)
			seed += 0x9E3779B97F4A7C15
			r := (seed ^ seed>>30) * 0xBF58476D1CE4E5B9
			r = (r ^ r>>27) * 0x94D049BB133111EB
			y[i] = float64((r^r>>31)>>11)*0x1p-52 - 1
		}
		copy(a, d)
		copy(b, e[:n-1])
		copy(c, e[:n-1])
		tol := factorShifted(a, b, c, u2, swap, xj)
		for its, grown := 1, 0; grown < 3; its++ {
			if its > 5 {
				return nil, fmt.Errorf("linalg: inverse iteration failed to converge for eigenvector %d", j)
			}
			scl := float64(n) * onenrm * max(eps, math.Abs(a[n-1])) / maxAbs(y)
			for i := range y {
				y[i] *= scl
			}
			solveShifted(a, b, c, u2, swap, tol, y)
			for i := cluster; i < j; i++ {
				zi := z[i*n : (i+1)*n]
				s := Dot(y, zi)
				for r, x := range zi {
					y[r] -= s * x
				}
			}
			if maxAbs(y) >= dtpcrt {
				grown++
			}
		}
		scl := 1 / Norm2(y)
		if y[argMaxAbs(y)] < 0 {
			scl = -scl
		}
		for i := range y {
			y[i] *= scl
		}
		xjm = xj
	}
	return z, nil
}

// factorShifted factors T − λI = P·L·U with partial pivoting, as
// LAPACK's dlagtf does. On entry a, b and c are T's diagonal, super-
// and sub-diagonal; on return a holds U's diagonal, b and u2 its first
// and second super-diagonals, c the multipliers, and swap[k] whether
// rows k and k+1 were interchanged. It returns the tolerance
// solveShifted nudges small pivots by.
func factorShifted(a, b, c, u2 []float64, swap []bool, lambda float64) float64 {
	n := len(a)
	a[0] -= lambda
	scale1 := math.Abs(a[0]) + math.Abs(b[0])
	for k := range n - 1 {
		a[k+1] -= lambda
		scale2 := math.Abs(c[k]) + math.Abs(a[k+1])
		if k < n-2 {
			scale2 += math.Abs(b[k+1])
		}
		piv1 := 0.0
		if a[k] != 0 {
			piv1 = math.Abs(a[k]) / scale1
		}
		u2[k] = 0
		swap[k] = c[k] != 0 && math.Abs(c[k])/scale2 > piv1
		if !swap[k] {
			scale1 = scale2
			if c[k] != 0 {
				c[k] /= a[k]
				a[k+1] -= c[k] * b[k]
			}
			continue
		}
		mult := a[k] / c[k]
		a[k] = c[k]
		temp := a[k+1]
		a[k+1] = b[k] - mult*temp
		if k < n-2 {
			u2[k] = b[k+1]
			b[k+1] = -mult * u2[k]
		}
		b[k] = temp
		c[k] = mult
	}
	tol := max(math.Abs(a[0]), math.Abs(a[1]), math.Abs(b[0]))
	for k := 2; k < n; k++ {
		tol = max(tol, math.Abs(a[k]), math.Abs(b[k-1]), math.Abs(u2[k-2]))
	}
	if tol *= eps; tol == 0 {
		tol = eps
	}
	return tol
}

// solveShifted overwrites y with (T − λI)⁻¹·y from factorShifted's
// factors, as LAPACK's dlagts (job −1) does: a pivot that is zero, or
// too small to divide by without overflow, is moved away from zero by
// tol, doubling, until it is not.
func solveShifted(a, b, c, u2 []float64, swap []bool, tol float64, y []float64) {
	n := len(a)
	for k := 1; k < n; k++ {
		if swap[k-1] {
			y[k-1], y[k] = y[k], y[k-1]-c[k-1]*y[k]
		} else {
			y[k] -= c[k-1] * y[k-1]
		}
	}
	for k := n - 1; k >= 0; k-- {
		temp := y[k]
		if k < n-1 {
			temp -= b[k] * y[k+1]
		}
		if k < n-2 {
			temp -= u2[k] * y[k+2]
		}
		ak := a[k]
		for pert := math.Copysign(tol, ak); ak == 0 || math.Abs(temp) > math.Abs(ak)*bignum; pert *= 2 {
			ak += pert
		}
		y[k] = temp / ak
	}
}

// backTransform carries the tridiagonal's eigenvectors (n-long runs of
// z) back to A's: x ← Q·x = P_{n-1}(···(P_1·x)).
func backTransform(w *Matrix, h, z []float64) {
	n := w.Rows
	for i := 1; i < n; i++ {
		if h[i] == 0 {
			continue
		}
		u := w.Data[i*n : i*n+i]
		for x := range len(z) / n {
			v := z[x*n : x*n+i]
			s := Dot(u, v) / h[i]
			for r, ur := range u {
				v[r] -= s * ur
			}
		}
	}
}

func maxAbs(v []float64) float64 { return math.Abs(v[argMaxAbs(v)]) }

// argMaxAbs returns the index of v's first entry of largest magnitude.
func argMaxAbs(v []float64) int {
	best := 0
	for i, x := range v {
		if math.Abs(x) > math.Abs(v[best]) {
			best = i
		}
	}
	return best
}
