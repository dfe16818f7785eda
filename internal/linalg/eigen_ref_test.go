package linalg

import (
	"fmt"
	"math"
	"sort"
)

// The reference eigensolvers EigenSym is held to: the classic tred2/tqli
// pair, which accumulates every eigenvector, and cyclic Jacobi, an
// independent algorithm. Both are kept as they were when they served
// EigenSym themselves (tred2/tqli for n > 64, Jacobi below).

// refEigenQL is the full Householder+QL eigendecomposition: eigenvalues
// descending, every eigenvector as a column of v.
func refEigenQL(a *Matrix) (eig []float64, v *Matrix, err error) {
	n := a.Rows
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(z, d, e)
	if err := refTqli(d, e, z); err != nil {
		return nil, nil, err
	}
	refSortEigenDescending(d, z)
	return d, z, nil
}

// refTred2 reduces the symmetric matrix stored in z to tridiagonal form
// with accumulated transforms (Householder). On return, d holds the
// diagonal, e the sub-diagonal (e[0] unused), and z the accumulated
// orthogonal matrix Q with QᵀAQ tridiagonal.
func refTred2(z *Matrix, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					zik := z.At(i, k) / scale
					z.Set(i, k, zik)
					h += zik * zik
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-f*e[k]-g*z.At(i, k))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// refTqli diagonalizes a symmetric tridiagonal matrix (d diagonal, e
// sub-diagonal with e[0] unused) by the QL algorithm with implicit
// shifts, accumulating the rotations into z's columns.
func refTqli(d, e []float64, z *Matrix) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter >= 50 {
				return fmt.Errorf("linalg: QL failed to converge at eigenvalue %d", l)
			}
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
				col1 := i + 1
				for k := 0; k < n; k++ {
					f := z.At(k, col1)
					zki := z.At(k, i)
					z.Set(k, col1, s*zki+c*f)
					z.Set(k, i, c*zki-s*f)
				}
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

// refEigenJacobi is the full eigendecomposition by cyclic Jacobi
// rotations: eigenvalues descending, eigenvectors as the columns of v.
func refEigenJacobi(a *Matrix) (eig []float64, v *Matrix) {
	n := a.Rows
	w := a.Clone()
	v = Identity(n)
	for sweep := 0; sweep < 64; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					off += w.At(i, j) * w.At(i, j)
				}
			}
		}
		if math.Sqrt(off) < 1e-12*(1+w.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				// Stable rotation computation (Golub & Van Loan §8.5).
				theta := (w.At(q, q) - w.At(p, p)) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
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
		}
	}
	eig = make([]float64, n)
	for i := range eig {
		eig[i] = w.At(i, i)
	}
	refSortEigenDescending(eig, v)
	return eig, v
}

// refSortEigenDescending reorders eigenpairs so eig is descending and
// the columns of v follow.
func refSortEigenDescending(eig []float64, v *Matrix) {
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
