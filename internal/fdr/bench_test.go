package fdr

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{10, 100, 1000, 10000} {
		pvals := make([]float64, m)
		for i := range pvals {
			pvals[i] = rng.Float64()
		}
		for _, proc := range []Procedure{Bonferroni, BH} {
			b.Run(fmt.Sprintf("%s/m=%d", proc, m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Apply(proc, pvals, 0.05); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkApplyInto is the zero-allocation hot path: one Result and
// one Scratch reused across every call. Steady state is 0 allocs/op for
// every procedure.
func BenchmarkApplyInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{100, 1000, 10000} {
		pvals := make([]float64, m)
		for i := range pvals {
			pvals[i] = rng.Float64()
		}
		for _, proc := range []Procedure{Bonferroni, BH, BY} {
			b.Run(fmt.Sprintf("%s/m=%d", proc, m), func(b *testing.B) {
				var res Result
				var scr Scratch
				if err := ApplyInto(proc, pvals, 0.05, &res, &scr); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ApplyInto(proc, pvals, 0.05, &res, &scr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
