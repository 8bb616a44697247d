package server

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"threadsched/internal/core"
)

// TestWorstJobForkMemory recomputes, from the request caps alone, the
// threads and bins of the worst accepted job of each kind and checks that
// the scheduler memory they fork stays within maxForkBytes. It forks
// nothing.
func TestWorstJobForkMemory(t *testing.T) {
	jobs := []struct {
		kind          string
		threads, bins int
	}{
		// One thread per dot product, before one run; a small block gives
		// every thread its own bin.
		{"matmul", maxMatmulN * maxMatmulN, maxMatmulN * maxMatmulN},
		// Every iteration's interior columns before one run, binned by
		// column only.
		{"sor", maxIters * (maxDim - 2), maxDim - 2},
		// One run per iteration of n fused steps.
		{"pde", maxDim, maxDim},
		// One run per step, whose groups the next step recycles.
		{"nbody", maxBodies, maxBodies},
	}
	for _, j := range jobs {
		got := core.ForkBytes(j.threads, j.bins)
		t.Logf("%s: %d threads in %d bins fork at most %.1f MiB", j.kind, j.threads, j.bins, float64(got)/(1<<20))
		if got > maxForkBytes {
			t.Errorf("%s: worst accepted job forks up to %d bytes, above the %d budget", j.kind, got, maxForkBytes)
		}
	}
	// matmul_n needs a cap of its own: at maxDim the same job would fork
	// far beyond the budget.
	if got := core.ForkBytes(maxDim*maxDim, maxDim*maxDim); got <= maxForkBytes {
		t.Errorf("matmul at maxDim forks %d bytes, within budget: maxMatmulN is not needed", got)
	}
}

func TestMatmulNCap(t *testing.T) {
	for n, ok := range map[int]bool{maxMatmulN: true, maxMatmulN + 1: false, maxDim: false} {
		body := `{"kind":"matmul","matmul_n":` + strconv.Itoa(n) + `}`
		_, err := DecodeRequest(strings.NewReader(body))
		if ok && err != nil {
			t.Errorf("%s: %v", body, err)
		}
		if !ok && !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", body, err)
		}
	}
}
