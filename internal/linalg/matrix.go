// Package linalg implements the dense linear algebra the anomaly
// detector needs: matrices with parallel blocked multiplication,
// covariance estimation, symmetric eigendecomposition (cyclic Jacobi)
// and singular value decomposition.
//
// The paper's offline trainer computes, per unit, the covariance matrix
// of the sensor streams and then an SVD of that covariance; the online
// evaluator is "a single matrix multiplication per iteration". Both hot
// paths live here. Matrices are row-major float64 with no external
// dependencies.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
)

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// non-positive dimensions, which are programming errors.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrShape
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Reset reshapes m to rows×cols, reusing the Data backing array when its
// capacity suffices. The contents after Reset are undefined; callers are
// expected to overwrite every element (as MulInto does). It panics on
// non-positive dimensions, matching NewMatrix.
func (m *Matrix) Reset(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) (*Matrix, error) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] += v
	}
	return out, nil
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) (*Matrix, error) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return nil, ErrShape
	}
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Mul returns m·other using a cache-blocked, goroutine-parallel kernel.
// Row blocks are distributed over GOMAXPROCS workers; the inner loops
// use the ikj ordering so the innermost loop streams both operands.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMatrix(m.Rows, other.Cols)
	mulInto(out, m, other)
	return out, nil
}

// mulInto computes out = a·b, parallelizing across row stripes when the
// work is large enough to amortize goroutine startup. Small products
// call the kernel directly: the parallelRows closure would heap-escape
// and cost an allocation even when no goroutine is ever spawned.
func mulInto(out, a, b *Matrix) {
	flops := float64(a.Rows) * float64(a.Cols) * float64(b.Cols)
	if flops < parallelFlopsMin || runtime.GOMAXPROCS(0) < 2 {
		mulRange(out, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, flops, func(lo, hi int) {
		mulRange(out, a, b, lo, hi)
	})
}

// parallelFlopsMin is the work size below which row-striped kernels run
// inline: under it, goroutine startup costs more than it saves.
const parallelFlopsMin = 1 << 17

// parallelRows runs fn over row stripes of [0, n) across GOMAXPROCS
// goroutines when the estimated work is large enough to amortize
// goroutine startup, and inline otherwise.
func parallelRows(n int, flops float64, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if flops < parallelFlopsMin || workers < 2 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MulScratch holds the reusable packed operand buffer for MulInto. The
// zero value is ready to use; buffers grow on demand and are retained
// between calls, so a long-lived scratch makes repeated products with
// the same shapes allocation-free.
type MulScratch struct {
	pack []float64 // column-major packed copy of the right operand
}

// mulScratchPool serves MulInto callers that pass a nil scratch.
var mulScratchPool = sync.Pool{New: func() any { return new(MulScratch) }}

// MulInto computes dst = a·b without allocating: dst must already have
// shape a.Rows×b.Cols (use Reset to recycle a buffer) and must not
// alias a or b. The right operand is packed into a column-major panel
// held by scr — cutting cache misses on the tall-thin d×K operand the
// evaluator multiplies by every tick — and the row stripes run in
// parallel exactly like Mul. A nil scr uses an internal pool.
//
// The packed kernel accumulates each output element in the same index
// order as Mul, so results are bit-identical to Mul's for finite
// inputs. (Mul's kernel skips zero left-operand terms, so the two can
// differ only when a zero multiplies a non-finite value.)
func MulInto(dst, a, b *Matrix, scr *MulScratch) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("%w: dst is %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	if scr == nil {
		s := mulScratchPool.Get().(*MulScratch)
		defer mulScratchPool.Put(s)
		scr = s
	}
	k, p := a.Cols, b.Cols
	if cap(scr.pack) < k*p {
		scr.pack = make([]float64, k*p)
	}
	pack := scr.pack[:k*p]
	// Pack b column-major: pack[j*k+l] = b[l][j]. Each column of b
	// becomes one contiguous run the dot kernel streams sequentially.
	for l := 0; l < k; l++ {
		brow := b.Data[l*p : (l+1)*p]
		for j, v := range brow {
			pack[j*k+l] = v
		}
	}
	flops := float64(a.Rows) * float64(k) * float64(p)
	// The serial path calls the kernel directly: wrapping it in the
	// parallelRows closure would heap-allocate even when never spawning,
	// breaking the zero-allocation steady state.
	if flops < parallelFlopsMin || runtime.GOMAXPROCS(0) < 2 {
		mulPackedRange(dst, a, pack, k, p, 0, a.Rows)
		return nil
	}
	parallelRows(a.Rows, flops, func(lo, hi int) {
		mulPackedRange(dst, a, pack, k, p, lo, hi)
	})
	return nil
}

// mulPackedRange computes rows [lo,hi) of dst = a·b from the packed
// column-major copy of b, four output columns at a time so one pass
// over the a-row feeds four independent accumulator chains.
func mulPackedRange(dst, a *Matrix, pack []float64, k, p, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*p : (i+1)*p]
		j := 0
		for ; j+4 <= p; j += 4 {
			b0 := pack[j*k : (j+1)*k]
			b1 := pack[(j+1)*k : (j+2)*k]
			b2 := pack[(j+2)*k : (j+3)*k]
			b3 := pack[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for l, av := range arow {
				s0 += av * b0[l]
				s1 += av * b1[l]
				s2 += av * b2[l]
				s3 += av * b3[l]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < p; j++ {
			bcol := pack[j*k : (j+1)*k]
			var s float64
			for l, av := range arow {
				s += av * bcol[l]
			}
			orow[j] = s
		}
	}
}

// SubVecInto fills dst[i] = a[i] - b[i] in one pass. dst may alias a or
// b; all three must share the same length. Empty input is a no-op.
func SubVecInto(dst, a, b []float64) {
	if len(a) == 0 {
		return
	}
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for i, av := range a {
		dst[i] = av - b[i]
	}
}

// mulRange computes rows [lo,hi) of out = a·b with ikj ordering.
func mulRange(out, a, b *Matrix, lo, hi int) {
	k, p := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*p : (i+1)*p]
		for x := range orow {
			orow[x] = 0
		}
		for l := 0; l < k; l++ {
			av := arow[l]
			if av == 0 {
				continue
			}
			brow := b.Data[l*p : (l+1)*p]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MulVec returns m·v for a vector v of length m.Cols.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.Cols {
		return nil, ErrShape
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 { return Norm2(m.Data) }

// MaxAbsDiff returns max |m_ij - other_ij|; +Inf on shape mismatch.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i, v := range m.Data {
		d := math.Abs(v - other.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// Equal reports element-wise equality within tol.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	return m.MaxAbsDiff(other) <= tol
}

// String renders the matrix for debugging (rows on lines, %.4g).
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ColumnMeans returns the mean of each column of m.
func (m *Matrix) ColumnMeans() []float64 {
	mu := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			mu[j] += v
		}
	}
	inv := 1 / float64(m.Rows)
	for j := range mu {
		mu[j] *= inv
	}
	return mu
}

// covStripes is how many row stripes Covariance accumulates apart. It
// is a constant, not the core count, so the summation order — and with
// it every bit of the result — is the same on any machine.
const covStripes = 4

// Covariance returns the unbiased sample covariance matrix (Cols×Cols)
// of the observations in m, one observation per row, along with the
// column means. It needs at least two rows.
//
// It is the centred two-pass form: the means first, then Σ(x−μ)(x−μ)ᵀ,
// which keeps full precision when a channel's spread is tiny next to
// its level. Each of covStripes row stripes accumulates into its own
// buffer (the stripes run in parallel) and the buffers are summed in
// stripe order.
func (m *Matrix) Covariance() (*Matrix, []float64, error) {
	if m.Rows < 2 {
		return nil, nil, fmt.Errorf("%w: covariance needs ≥2 rows, have %d", ErrShape, m.Rows)
	}
	mu := m.ColumnMeans()
	d := m.Cols
	chunk := (m.Rows + covStripes - 1) / covStripes
	stripes := (m.Rows + chunk - 1) / chunk
	accs := make([]float64, stripes*d*d)
	parallelRows(stripes, float64(m.Rows)*float64(d)*float64(d)/2, func(lo, hi int) {
		cen := make([]float64, d)
		for s := lo; s < hi; s++ {
			acc := accs[s*d*d : (s+1)*d*d]
			for i := s * chunk; i < min((s+1)*chunk, m.Rows); i++ {
				SubVecInto(cen, m.Row(i), mu)
				for j, cj := range cen {
					if cj == 0 {
						continue
					}
					arow := acc[j*d : (j+1)*d]
					// Symmetric: accumulate the upper triangle only.
					for l := j; l < d; l++ {
						arow[l] += cj * cen[l]
					}
				}
			}
		}
	})
	cov := NewMatrix(d, d)
	for s := 0; s < stripes; s++ {
		for i, v := range accs[s*d*d : (s+1)*d*d] {
			cov.Data[i] += v
		}
	}
	inv := 1 / float64(m.Rows-1)
	for j := 0; j < d; j++ {
		for l := j; l < d; l++ {
			v := cov.Data[j*d+l] * inv
			cov.Data[j*d+l] = v
			cov.Data[l*d+j] = v
		}
	}
	return cov, mu, nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}
