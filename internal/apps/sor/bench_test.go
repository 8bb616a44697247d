package sor

import (
	"fmt"
	"testing"
)

const (
	benchN = 501
	benchT = 10
	benchL = 2 << 20
)

func reportUpdates(b *testing.B, n, t int) {
	updates := float64(t) * float64(n-2) * float64(n-2)
	b.ReportMetric(updates*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
}

// BenchmarkUntiledRef is the pre-optimization sweep baseline.
func BenchmarkUntiledRef(b *testing.B) {
	a := NewArray(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UntiledRef(a, benchN, benchT)
	}
	reportUpdates(b, benchN, benchT)
}

// BenchmarkUntiled is the optimized pipelined column-pair sweep.
func BenchmarkUntiled(b *testing.B) {
	a := NewArray(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Untiled(a, benchN, benchT)
	}
	reportUpdates(b, benchN, benchT)
}

// BenchmarkThreadedExact measures the dependence-exact variant through
// the parallel dataflow executor at 1/2/4 workers.
func BenchmarkThreadedExact(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			a := NewArray(benchN)
			sched := ParallelScheduler(benchL, w)
			defer sched.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ThreadedExact(a, benchN, benchT, sched); err != nil {
					b.Fatal(err)
				}
			}
			reportUpdates(b, benchN, benchT)
		})
	}
}
