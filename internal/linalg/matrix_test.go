package linalg

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 3) must panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Fatal("FromRows layout wrong")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatal("ragged rows must return ErrShape")
	}
	if _, err := FromRows(nil); !errors.Is(err, ErrShape) {
		t.Fatal("empty input must return ErrShape")
	}
}

func TestIdentityAndMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 7, 5)
	i5 := Identity(5)
	ai, err := a.Mul(i5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(ai, 0) {
		t.Fatal("A·I must equal A exactly")
	}
	i7 := Identity(7)
	ia, err := i7.Mul(a)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(ia, 0) {
		t.Fatal("I·A must equal A exactly")
	}
}

func TestMulKnownProduct(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b, _ := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{58, 64}, {139, 154}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("product wrong:\n%v", c)
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrShape) {
		t.Fatal("2x3 · 2x3 must fail with ErrShape")
	}
}

func TestMulParallelMatchesSerial(t *testing.T) {
	// Large enough to trigger the parallel path; compare against a naive
	// triple loop.
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 120, 90)
	b := randMatrix(rng, 90, 110)
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(120, 110)
	for i := 0; i < 120; i++ {
		for j := 0; j < 110; j++ {
			s := 0.0
			for k := 0; k < 90; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("parallel multiply differs from naive by %v", d)
	}
}

func TestTransposeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := rng.Intn(6) + 2
		c := rng.Intn(6) + 2
		a := randMatrix(rng, r, c)
		b := randMatrix(rng, c, rng.Intn(5)+2)
		// (Aᵀ)ᵀ = A
		if !a.T().T().Equal(a, 0) {
			return false
		}
		// (AB)ᵀ = BᵀAᵀ
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		btat, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		return ab.T().Equal(btat, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{11, 22}, {33, 44}})
	if !sum.Equal(want, 0) {
		t.Fatal("Add wrong")
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(a, 0) {
		t.Fatal("Sub wrong")
	}
	if got := a.Scale(2).At(1, 1); got != 8 {
		t.Fatalf("Scale wrong: %v", got)
	}
	if _, err := a.Add(NewMatrix(3, 3)); !errors.Is(err, ErrShape) {
		t.Fatal("shape mismatch must error")
	}
	if _, err := a.Sub(NewMatrix(3, 3)); !errors.Is(err, ErrShape) {
		t.Fatal("shape mismatch must error")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec wrong: %v", got)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("length mismatch must error")
	}
}

func TestDotAndNorms(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2 wrong")
	}
	m, _ := FromRows([][]float64{{3}, {4}})
	if m.FrobeniusNorm() != 5 {
		t.Fatal("FrobeniusNorm wrong")
	}
}

func TestColumnMeansAndCovariance(t *testing.T) {
	// Perfectly correlated columns: cov = [[1,2],[2,4]] for x=±1, y=±2.
	m, _ := FromRows([][]float64{{-1, -2}, {1, 2}, {-1, -2}, {1, 2}})
	mu := m.ColumnMeans()
	if mu[0] != 0 || mu[1] != 0 {
		t.Fatalf("means wrong: %v", mu)
	}
	cov, mu2, err := m.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	if mu2[0] != 0 {
		t.Fatal("Covariance must return means")
	}
	want, _ := FromRows([][]float64{{4.0 / 3, 8.0 / 3}, {8.0 / 3, 16.0 / 3}})
	if !cov.Equal(want, 1e-12) {
		t.Fatalf("covariance wrong:\n%v", cov)
	}
	if !cov.IsSymmetric(0) {
		t.Fatal("covariance must be symmetric")
	}
}

func TestCovarianceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 500, 4)
	cov, _, err := m.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	// Check one entry against the scalar two-pass formula.
	col0 := make([]float64, m.Rows)
	col2 := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		col0[i] = m.At(i, 0)
		col2[i] = m.At(i, 2)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	m0, m2 := mean(col0), mean(col2)
	var c02 float64
	for i := range col0 {
		c02 += (col0[i] - m0) * (col2[i] - m2)
	}
	c02 /= float64(len(col0) - 1)
	if math.Abs(cov.At(0, 2)-c02) > 1e-10 {
		t.Fatalf("cov(0,2) = %v, want %v", cov.At(0, 2), c02)
	}
}

func TestCovarianceParallelPathMatchesSerial(t *testing.T) {
	// Wide enough to trigger multiple workers; covariance must be
	// identical (up to fp reassociation) to the one-worker result.
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 4096, 16)
	cov, _, err := m.Covariance()
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference.
	mu := m.ColumnMeans()
	d := m.Cols
	ref := NewMatrix(d, d)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				ref.Data[a*d+b] += (row[a] - mu[a]) * (row[b] - mu[b])
			}
		}
	}
	for i := range ref.Data {
		ref.Data[i] /= float64(m.Rows - 1)
	}
	if diff := cov.MaxAbsDiff(ref); diff > 1e-9 {
		t.Fatalf("parallel covariance differs from serial by %v", diff)
	}
}

// TestCovarianceIndependentOfProcs: the row stripes are fixed, not one
// per core, so the covariance of a window is bit-identical whatever
// GOMAXPROCS the process runs with (a trained model must not depend on
// the machine that trained it).
func TestCovarianceIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := randMatrix(rand.New(rand.NewSource(5)), 256, 50)
	var want *Matrix
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		cov, _, err := m.Covariance()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = cov
			continue
		}
		for i, v := range cov.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("GOMAXPROCS=%d: element %d is %v, %v at GOMAXPROCS=1", procs, i, v, want.Data[i])
			}
		}
	}
}

func TestCovarianceNeedsTwoRows(t *testing.T) {
	m := NewMatrix(1, 3)
	if _, _, err := m.Covariance(); !errors.Is(err, ErrShape) {
		t.Fatal("single-row covariance must error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestStringRenders(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	if a.String() != "1 2\n" {
		t.Fatalf("String: %q", a.String())
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	if d := NewMatrix(1, 2).MaxAbsDiff(NewMatrix(2, 1)); !math.IsInf(d, 1) {
		t.Fatal("shape mismatch must report +Inf")
	}
}
