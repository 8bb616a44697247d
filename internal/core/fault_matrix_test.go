package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"threadsched/internal/fault"
)

// The fault-injection matrix: a deterministic injected panic at the
// first, middle, and last thread of a run, across every execution path —
// serial, segmented parallel, dep-serial (DepScheduler's dataflow
// executor on one worker), and wavefront (the same executor on four) —
// must be contained into a typed error, quiesce without leaking
// goroutines, and leave the scheduler reusable. These tests are part of the -race suite; the detector verifies the containment paths
// carry the same happens-before edges as normal completion.

const matrixThreads = 600

// matrixVariant runs fn(injector) under one scheduler configuration and
// returns the error from the context entry point plus how many threads
// executed.
type matrixVariant struct {
	name string
	run  func(t *testing.T, in *fault.Injector) (err error, ran int64)
}

func schedVariant(name string, cfg Config) matrixVariant {
	return matrixVariant{name: name, run: func(t *testing.T, in *fault.Injector) (error, int64) {
		s := New(cfg)
		defer s.Close()
		var ran atomic.Int64
		for i := 0; i < matrixThreads; i++ {
			n := uint64(i)
			s.Fork(func(int, int) {
				in.MaybePanic(fault.ThreadPanic, n)
				ran.Add(1)
			}, i, 0, uint64(i%31)<<12, 0, 0)
		}
		err := s.RunContext(context.Background(), false)
		// Reusability is part of the containment contract: a fresh
		// cycle must work whatever the previous run returned.
		ok := false
		s.Init(0, 0)
		s.Fork(func(int, int) { ok = true }, 0, 0, 0, 0, 0)
		if rerr := s.RunContext(context.Background(), false); rerr != nil || !ok {
			t.Fatalf("%s: scheduler unusable after contained run: %v", name, rerr)
		}
		return err, ran.Load()
	}}
}

func depVariant(name string, cfg Config) matrixVariant {
	return matrixVariant{name: name, run: func(t *testing.T, in *fault.Injector) (error, int64) {
		d := NewDep(cfg)
		defer d.Close()
		var ran atomic.Int64
		var prev ThreadID = -1
		for i := 0; i < matrixThreads; i++ {
			n := uint64(i)
			fn := func(int, int) {
				in.MaybePanic(fault.ThreadPanic, n)
				ran.Add(1)
			}
			// A sparse chain keeps a real DAG in play without
			// serializing everything: every 8th thread depends on the
			// previous chain link.
			if i%8 == 0 && prev >= 0 {
				prev = d.Fork(fn, i, 0, uint64(i%31)<<12, 0, 0, prev)
			} else if i%8 == 0 {
				prev = d.Fork(fn, i, 0, uint64(i%31)<<12, 0, 0)
			} else {
				d.Fork(fn, i, 0, uint64(i%31)<<12, 0, 0)
			}
		}
		err := d.RunContext(context.Background())
		ok := false
		d.Fork(func(int, int) { ok = true }, 0, 0, 0, 0, 0)
		if rerr := d.RunContext(context.Background()); rerr != nil || !ok {
			t.Fatalf("%s: scheduler unusable after contained run: %v", name, rerr)
		}
		return err, ran.Load()
	}}
}

func matrixVariants() []matrixVariant {
	base := Config{CacheSize: 1 << 20, BlockSize: 1 << 12}
	seg, wave := base, base
	seg.Workers = 4
	wave.Workers = 4
	return []matrixVariant{
		schedVariant("serial", base),
		schedVariant("segmented", seg),
		depVariant("dep-serial", base),
		depVariant("wavefront", wave),
	}
}

// TestPanicMatrix: first/middle/last injected panic × every execution
// path. Each must return a *ThreadPanicError carrying the injected
// *fault.Panic, not crash the process.
func TestPanicMatrix(t *testing.T) {
	positions := map[string]uint64{
		"first":  0,
		"middle": matrixThreads / 2,
		"last":   matrixThreads - 1,
	}
	for _, v := range matrixVariants() {
		for pos, n := range positions {
			t.Run(v.name+"/"+pos, func(t *testing.T) {
				before := stableGoroutines()
				in := fault.New(fault.Config{At: map[fault.Site][]uint64{fault.ThreadPanic: {n}}})
				err, ran := v.run(t, in)
				var tp *ThreadPanicError
				if !errors.As(err, &tp) {
					t.Fatalf("err = %v, want *ThreadPanicError", err)
				}
				fp, ok := tp.Value.(*fault.Panic)
				if !ok || fp.Site != fault.ThreadPanic || fp.N != n {
					t.Fatalf("panic value = %#v, want injected fault at n=%d", tp.Value, n)
				}
				if len(tp.Stack) == 0 || tp.Error() == "" {
					t.Error("ThreadPanicError missing stack or message")
				}
				if ran >= matrixThreads {
					t.Fatalf("all %d threads ran despite a panic at %d", ran, n)
				}
				checkGoroutines(t, v.name, before)
			})
		}
	}
}

// TestNoInjectionMatrix: with injection disabled (nil injector and
// zero-config injector alike), every path completes all threads with a
// nil error — fault hooks cost correctness nothing.
func TestNoInjectionMatrix(t *testing.T) {
	for _, v := range matrixVariants() {
		for _, in := range []*fault.Injector{nil, fault.New(fault.Config{})} {
			err, ran := v.run(t, in)
			if err != nil {
				t.Fatalf("%s: err = %v with injection disabled", v.name, err)
			}
			if ran != matrixThreads {
				t.Fatalf("%s: ran %d threads, want %d", v.name, ran, matrixThreads)
			}
		}
	}
}

// TestCancellationMidTour: a context cancelled from inside a thread stops
// every path at its next bin boundary — some threads ran, not all, the
// error is ctx.Err(), and the pool quiesces.
func TestCancellationMidTour(t *testing.T) {
	for _, w := range []int{1, 4} {
		s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: w})
		ctx, cancel := context.WithCancel(context.Background())
		before := stableGoroutines()
		var ran atomic.Int64
		for i := 0; i < matrixThreads; i++ {
			i := i
			s.Fork(func(int, int) {
				if i == 40 {
					cancel()
				}
				ran.Add(1)
			}, i, 0, uint64(i%31)<<12, 0, 0)
		}
		err := s.RunContext(ctx, false)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if n := ran.Load(); n == 0 || n == matrixThreads {
			t.Fatalf("workers=%d: ran %d threads; cancellation did not stop mid-tour", w, n)
		}
		// Reusable afterwards with a live context.
		ok := false
		s.Init(0, 0)
		s.Fork(func(int, int) { ok = true }, 0, 0, 0, 0, 0)
		if rerr := s.RunContext(context.Background(), false); rerr != nil || !ok {
			t.Fatalf("workers=%d: unusable after cancelled run: %v", w, rerr)
		}
		s.Close()
		checkGoroutines(t, "cancel", before)
		cancel()
	}
}

// TestCancellationDuringFinalBin: cancellation wins even when it fires
// inside the last (or only) bin, where no later boundary exists to
// observe it — serial, parallel, and dependence paths all report
// ctx.Err() rather than disagreeing about a completed-but-cancelled run.
func TestCancellationDuringFinalBin(t *testing.T) {
	for _, w := range []int{1, 4} {
		s := New(Config{CacheSize: 1 << 20, Workers: w})
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		for i := 0; i < 50; i++ {
			i := i
			// Every thread in one bin: cancel fires mid-bin and the rest
			// of the bin still runs (no preemption inside a bin).
			s.Fork(func(int, int) {
				if i == 10 {
					cancel()
				}
				ran++
			}, i, 0, 0, 0, 0)
		}
		err := s.RunContext(ctx, false)
		s.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if ran != 50 {
			t.Fatalf("workers=%d: ran %d, want the whole bin (run-to-completion)", w, ran)
		}
		cancel()
	}
	for _, w := range []int{1, 4} {
		d := NewDep(Config{CacheSize: 1 << 20, Workers: w})
		ctx, cancel := context.WithCancel(context.Background())
		d.Fork(func(int, int) { cancel() }, 0, 0, 0, 0, 0)
		err := d.RunContext(ctx)
		d.Close()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("dep workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestCancellationPreemptsRun: an already-cancelled context runs nothing.
func TestCancellationPreemptsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := New(Config{CacheSize: 1 << 20})
	ran := false
	s.Fork(func(int, int) { ran = true }, 0, 0, 0, 0, 0)
	if err := s.RunContext(ctx, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("thread ran under a pre-cancelled context")
	}
	// DepScheduler too.
	d := NewDep(Config{CacheSize: 1 << 20, Workers: 4})
	defer d.Close()
	ran = false
	d.Fork(func(int, int) { ran = true }, 0, 0, 0, 0, 0)
	if err := d.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dep err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("dep thread ran under a pre-cancelled context")
	}
}

// TestRunEachContextContainment: the run-each path reports the bin in
// which the panic happened and survives for a fresh cycle.
func TestRunEachContextContainment(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12})
	in := fault.New(fault.Config{At: map[fault.Site][]uint64{fault.ThreadPanic: {7}}})
	for i := 0; i < 32; i++ {
		n := uint64(i)
		s.Fork(func(int, int) { in.MaybePanic(fault.ThreadPanic, n) }, i, 0, uint64(i%4)<<12, 0, 0)
	}
	bins := 0
	err := s.RunEachContext(context.Background(), false, func(bin, threads int) { bins++ })
	var tp *ThreadPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("err = %v, want *ThreadPanicError", err)
	}
	if tp.Phase != "run-each" {
		t.Errorf("Phase = %q, want run-each", tp.Phase)
	}
	if bins == 0 {
		t.Error("beforeBin never called")
	}
}

// TestGoldenOrderWithInjectionDisabled: attaching a zero-probability
// injector must not perturb execution order — serial runs record the
// byte-identical thread sequence with and without the hooks.
func TestGoldenOrderWithInjectionDisabled(t *testing.T) {
	record := func(in *fault.Injector) []int {
		s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12})
		var order []int
		for i := 0; i < 500; i++ {
			i := i
			n := uint64(i)
			s.Fork(func(int, int) {
				in.MaybePanic(fault.ThreadPanic, n)
				order = append(order, i)
			}, i, 0, uint64(i%23)<<12, uint64(i%7)<<12, 0)
		}
		if err := s.RunContext(context.Background(), false); err != nil {
			t.Fatal(err)
		}
		return order
	}
	bare := record(nil)
	hooked := record(fault.New(fault.Config{Seed: 1}))
	if len(bare) != len(hooked) {
		t.Fatalf("order lengths differ: %d vs %d", len(bare), len(hooked))
	}
	for i := range bare {
		if bare[i] != hooked[i] {
			t.Fatalf("execution order diverges at %d: %d vs %d", i, bare[i], hooked[i])
		}
	}
}

// TestStatsTruthfulAfterPanic: threads that completed before containment
// still count in the lifetime totals.
func TestStatsTruthfulAfterPanic(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12})
	in := fault.New(fault.Config{At: map[fault.Site][]uint64{fault.ThreadPanic: {100}}})
	for i := 0; i < 200; i++ {
		n := uint64(i)
		s.Fork(func(int, int) { in.MaybePanic(fault.ThreadPanic, n) }, i, 0, 0, 0, 0)
	}
	var tp *ThreadPanicError
	if err := s.RunContext(context.Background(), false); !errors.As(err, &tp) {
		t.Fatalf("err = %v", err)
	}
	// One bin, serial: exactly the 100 threads before the panic ran.
	if got := s.Stats().TotalRun; got != 100 {
		t.Fatalf("TotalRun = %d, want 100", got)
	}
	if s.Stats().Runs != 0 {
		t.Fatalf("Runs = %d; a failed run must not count", s.Stats().Runs)
	}
}

// TestLegacyRunStillPanics: the panicking entry points re-raise contained
// panics, so pre-containment callers observe a panic exactly as before —
// now with a typed, diagnosable value.
func TestLegacyRunStillPanics(t *testing.T) {
	s := New(Config{CacheSize: 1 << 20})
	s.Fork(func(int, int) { panic("boom") }, 0, 0, 0, 0, 0)
	func() {
		defer func() {
			tp, ok := recover().(*ThreadPanicError)
			if !ok || tp.Value != "boom" {
				t.Fatalf("recovered %#v, want *ThreadPanicError{Value: boom}", tp)
			}
		}()
		s.Run(false)
		t.Fatal("Run did not panic")
	}()

	d := NewDep(Config{CacheSize: 1 << 20})
	d.Fork(func(int, int) { panic("dep boom") }, 0, 0, 0, 0, 0)
	func() {
		defer func() {
			tp, ok := recover().(*ThreadPanicError)
			if !ok || tp.Value != "dep boom" {
				t.Fatalf("recovered %#v, want *ThreadPanicError{Value: dep boom}", tp)
			}
		}()
		_ = d.Run()
		t.Fatal("DepScheduler.Run did not panic")
	}()
}

// TestWorkerDelayInjection: injected worker delays slow a run down but
// change nothing about its outcome — all threads run exactly once.
func TestWorkerDelayInjection(t *testing.T) {
	in := fault.New(fault.Config{
		Prob:  map[fault.Site]float64{fault.WorkerDelay: 0.05},
		Delay: 100 * time.Microsecond,
	})
	s := New(Config{CacheSize: 1 << 20, BlockSize: 1 << 12, Workers: 4})
	defer s.Close()
	var ran atomic.Int64
	for i := 0; i < 1000; i++ {
		n := uint64(i)
		s.Fork(func(int, int) {
			in.MaybeDelay(fault.WorkerDelay, n)
			ran.Add(1)
		}, i, 0, uint64(i%31)<<12, 0, 0)
	}
	if err := s.RunContext(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1000 {
		t.Fatalf("ran %d threads, want 1000", ran.Load())
	}
}

func stableGoroutines() int {
	runtime.GC()
	time.Sleep(time.Millisecond)
	return runtime.NumGoroutine()
}

// checkGoroutines allows the persistent pool's parked workers (closed by
// the variants before this point) a moment to exit.
func checkGoroutines(t *testing.T, name string, before int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%s: goroutines %d before, %d after — leak", name, before, runtime.NumGoroutine())
}
