package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMatrixMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 256, 512} {
		x := randMatrix(rng, n, n)
		y := randMatrix(rng, n, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := x.Mul(y); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkCovariance(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 2048, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Covariance(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigenSym times the trainer's call: every eigenvalue and the
// 10 leading eigenvectors, at 200 sensors (the benchmark fleet's units)
// and 1000 (the widest unit the paper cites).
func BenchmarkEigenSym(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{32, 200, 1000} {
		a := randSymmetric(rng, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := EigenSym(a, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulInto measures the packed in-place multiply on the
// evaluator's tall-thin shape (batch×sensors · sensors×K) against a
// warmed scratch: steady state is allocation-free on serial shapes.
func BenchmarkMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][3]int{{64, 100, 10}, {64, 1000, 10}, {256, 256, 256}} {
		n, k, p := shape[0], shape[1], shape[2]
		x := randMatrix(rng, n, k)
		y := randMatrix(rng, k, p)
		dst := NewMatrix(n, p)
		var scr MulScratch
		b.Run(fmt.Sprintf("%dx%dx%d", n, k, p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := MulInto(dst, x, y, &scr); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * float64(n) * float64(k) * float64(p)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
